package main

import "testing"

func TestParseLine(t *testing.T) {
	name, r, ok := parseLine(
		"BenchmarkSingleRun-8   3   202072 ns/op   7537 events/op   12 B/op   3 allocs/op")
	if !ok {
		t.Fatal("expected a benchmark line to parse")
	}
	if name != "BenchmarkSingleRun" {
		t.Errorf("name = %q, want GOMAXPROCS suffix stripped", name)
	}
	if r.NsPerOp != 202072 || r.AllocsPerOp != 3 || r.BytesPerOp != 12 {
		t.Errorf("parsed %+v", r)
	}
	if got := r.Metrics["events/op"]; got != 7537 {
		t.Errorf("events/op = %v, want 7537", got)
	}
}

func TestParseLineNoSuffix(t *testing.T) {
	name, r, ok := parseLine("BenchmarkEventQueue \t 8537520\t       135.1 ns/op\t       0 B/op\t       0 allocs/op")
	if !ok || name != "BenchmarkEventQueue" {
		t.Fatalf("ok=%v name=%q", ok, name)
	}
	if r.NsPerOp != 135.1 || r.AllocsPerOp != 0 || r.Metrics != nil {
		t.Errorf("parsed %+v", r)
	}
}

func TestParseLineRejectsNonBenchmarks(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"pkg: memscale",
		"PASS",
		"ok  \tmemscale\t9.656s",
		"BenchmarkBroken-8", // no measurements
		"",
	} {
		if name, _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted as %q", line, name)
		}
	}
}

func TestParseEventBudgets(t *testing.T) {
	into := map[string]float64{"BenchmarkSingleRun": 4_500_000}
	if err := parseEventBudgets("BenchmarkSingleRun=4000000, BenchmarkSweep=9e6", into); err != nil {
		t.Fatal(err)
	}
	if into["BenchmarkSingleRun"] != 4_000_000 || into["BenchmarkSweep"] != 9e6 {
		t.Errorf("event budgets = %v", into)
	}
	if err := parseEventBudgets("nonsense", into); err == nil {
		t.Error("malformed spec must error")
	}
	if err := parseEventBudgets("Bench=abc", into); err == nil {
		t.Error("non-numeric budget must error")
	}
}

func TestParseBudgets(t *testing.T) {
	into := map[string]int64{"BenchmarkSingleRun": 10_000}
	if err := parseBudgets("BenchmarkSingleRun=500, BenchmarkSweep=2000", into); err != nil {
		t.Fatal(err)
	}
	if into["BenchmarkSingleRun"] != 500 || into["BenchmarkSweep"] != 2000 {
		t.Errorf("budgets = %v", into)
	}
	if err := parseBudgets("nonsense", into); err == nil {
		t.Error("malformed spec must error")
	}
	if err := parseBudgets("Bench=abc", into); err == nil {
		t.Error("non-numeric budget must error")
	}
}

func TestParseLineProcs(t *testing.T) {
	for line, want := range map[string]int{
		"BenchmarkSingleRunParallel-4   1   5e9 ns/op": 4,
		"BenchmarkSingleRunParallel   1   5e9 ns/op":   1,
	} {
		if _, r, ok := parseLine(line); !ok || r.Procs != want {
			t.Errorf("parseLine(%q): ok=%v procs=%d, want %d", line, ok, r.Procs, want)
		}
	}
}

// floorReport runs checkFloors for one BenchmarkSingleRunParallel
// result under its default floor.
func floorReport(line string, numCPU int) report {
	rep := report{MinMetricValues: map[string]map[string]float64{}}
	name, r, _ := parseLine(line)
	checkFloors(&rep, name, r, defaultMinMetrics[name], numCPU)
	return rep
}

func TestFloorMissingOnCapableHost(t *testing.T) {
	rep := floorReport("BenchmarkSingleRunParallel-2   1   5e9 ns/op   2000 allocs/op", 2)
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %q, want one for the missing speedup-x", rep.Violations)
	}
}

func TestFloorPresentOnCapableHost(t *testing.T) {
	rep := floorReport("BenchmarkSingleRunParallel-2   1   5e9 ns/op   1.6 speedup-x", 2)
	if len(rep.Violations) != 0 {
		t.Fatalf("violations = %q, want none", rep.Violations)
	}
	if got := rep.MinMetricValues["BenchmarkSingleRunParallel"]["speedup-x"]; got != 1.6 {
		t.Errorf("recorded speedup-x = %v, want 1.6", got)
	}
	rep = floorReport("BenchmarkSingleRunParallel-2   1   5e9 ns/op   1.1 speedup-x", 2)
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %q, want one for speedup-x below its floor", rep.Violations)
	}
}

func TestFloorMissingOnOneCPUHost(t *testing.T) {
	for _, c := range []struct {
		line   string
		numCPU int
	}{
		{"BenchmarkSingleRunParallel   1   5e9 ns/op", 1},   // one CPU, GOMAXPROCS 1
		{"BenchmarkSingleRunParallel   1   5e9 ns/op", 4},   // GOMAXPROCS 1 on a multi-CPU host
		{"BenchmarkSingleRunParallel-4   1   5e9 ns/op", 1}, // GOMAXPROCS above a one-CPU host
	} {
		if rep := floorReport(c.line, c.numCPU); len(rep.Violations) != 0 {
			t.Errorf("%q on %d CPUs: violations %q, want none", c.line, c.numCPU, rep.Violations)
		}
	}
}
