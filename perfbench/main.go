// Command perfbench is the repository's benchmark. It runs one seeded
// workload of the MemScale simulator through the calls real callers
// make, checks every operation's simulated outputs bit for bit, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a separately traced run). The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload paper-grid --seed 0 --seconds 20 --trace 0
//
// The model has not been validated against hardware, so the benchmark
// reports host speed and simulated statistics, never an accuracy error.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its workload's inputs;
// setup_s is the median.
const setupReps = 25

//go:embed digests.json
var digestsJSON []byte

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: paper-grid, sharded-mem or fleet-capped")
	seed := flag.Uint64("seed", 0, "input seed; 0 keeps the canonical mix names")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {paper-grid|sharded-mem|fleet-capped} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	b := &bench{def: def, seed: *seed, seconds: time.Duration(*seconds) * time.Second, nproc: runtime.NumCPU()}
	if err := b.run(context.Background(), *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// bench is one benchmark run of one workload.
type bench struct {
	def     *workloadDef
	seed    uint64
	seconds time.Duration
	nproc   int

	w      benchWorkload
	setups []time.Duration
	ref    passResult

	attempted, failed int
	defectLosses      int // fleet nodes lost to the known slack_ledger defect
	problems          []string
}

func (b *bench) run(ctx context.Context, traced bool) error {
	fp := fingerprint(b.seed, b.def)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		w, err := b.def.build(b.seed, b.nproc)
		if err != nil {
			return fmt.Errorf("set up %s: %w", b.def.name, err)
		}
		b.setups = append(b.setups, time.Since(t0))
		b.w = w
	}

	// The reference pass goes through the public API where the workload
	// has one; every later pass must reproduce its digests. When it
	// makes the same calls as a timed pass it is the first timed pass.
	var timed, tracedPasses []passResult
	start := time.Now()
	b.ref = b.w.pass(ctx, modeReference, nil)
	if b.ref.fatal != nil {
		return fmt.Errorf("reference pass: %w", b.ref.fatal)
	}
	want := golden{Pass: b.ref.digest, Ops: opDigests(b.ref.ops)}
	rec, ok, err := recorded(b.def.name, b.seed)
	if err != nil {
		return err
	}
	if !ok {
		rec = want
	}
	b.check(b.ref, "reference", rec)
	if b.w.timedReference() {
		timed = append(timed, b.ref)
	} else {
		start = time.Now()
	}

	tr := newTracer()
	for i := 0; len(timed) == 0 || (traced && len(tracedPasses) == 0) || time.Since(start) < b.seconds; i++ {
		mode := modeTimed
		if traced && i%2 == 0 {
			mode = modeTraced
		}
		p := b.w.pass(ctx, mode, tr)
		if p.fatal != nil {
			return fmt.Errorf("pass %d: %w", i, p.fatal)
		}
		b.check(p, fmt.Sprintf("pass %d", i), want)
		if mode == modeTraced {
			tracedPasses = append(tracedPasses, p)
		} else {
			timed = append(timed, p)
		}
	}

	var metrics map[string]metric
	var extra map[string]any
	if traced {
		var err error
		metrics, extra, err = b.layerMetrics(ctx, tracedPasses, timed, tr)
		if err != nil {
			return err
		}
		path := fmt.Sprintf(".bench_build/perfbench/spans-%s-seed%d.jsonl", b.def.name, b.seed)
		if err := tr.write(path, map[string]any{"fingerprint": fp}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		extra["spans_file"] = path
	} else {
		metrics = b.endToEnd(timed)
		var walls []float64
		for _, p := range timed {
			walls = append(walls, p.wall.Seconds())
		}
		extra = map[string]any{"pass_wall_s": walls}
	}
	errorRate := 0.0
	if b.attempted > 0 {
		errorRate = float64(b.failed+b.defectLosses) / float64(b.attempted)
	}
	extra["error_rate"] = metric{Value: errorRate, Unit: "ratio", Samples: b.attempted}
	extra["ops_lost_to_slack_ledger"] = b.defectLosses
	extra["invariant_violations"] = b.ref.lay.violations

	b.report(fp, metrics, extra, traced)
	out := result{
		Correct:   len(b.problems) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for k, m := range metrics {
		out.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// check applies the per-operation output checks to one pass. An
// operation fails when its call returned an error, a summary value is
// not finite, it passed no invariant checks, a sharded op ran on fewer
// than two engine shards, or its digest differs from want's: the
// digests recorded in digests.json for the reference pass, where the
// seed is recorded, and the reference pass's for every later pass. A
// fleet node lost to the slack_ledger invariant is the workload's known
// defect: it is counted in error_rate, not as a failed check, as long
// as the reference run lost the same node.
func (b *bench) check(p passResult, label string, want golden) {
	if p.digest != want.Pass {
		b.problems = append(b.problems, fmt.Sprintf("%s: digest %s differs from %s", label, p.digest, want.Pass))
	}
	for i, op := range p.ops {
		b.attempted++
		var why string
		switch {
		case op.err != nil && op.knownDefect:
			if i >= len(b.ref.ops) || !b.ref.ops[i].knownDefect {
				why = fmt.Sprintf("lost, unlike the reference: %v", op.err)
			}
		case op.err != nil:
			why = op.err.Error()
		case !op.finite:
			why = "non-finite summary value"
		case op.checks == 0:
			why = "passed no invariant checks"
		case op.minShards > 0 && op.shards < op.minShards:
			why = fmt.Sprintf("ran on %d engine shard(s), want >= %d", op.shards, op.minShards)
		}
		if why == "" && (i >= len(want.Ops) || op.digest != want.Ops[i]) {
			why = "simulated-statistics digest differs from the recorded one"
		}
		if why != "" {
			b.failed++
			b.problems = append(b.problems, fmt.Sprintf("%s %s: %s", label, op.name, why))
			continue
		}
		if op.knownDefect {
			b.defectLosses++
		}
	}
	if p.gov != nil && p.gov.unwrapped > 0 {
		b.problems = append(b.problems, fmt.Sprintf("%s: %d governor(s) had a shape the wrapper cannot forward", label, p.gov.unwrapped))
	}
}

// endToEnd derives the untraced metrics from the timed passes.
func (b *bench) endToEnd(timed []passResult) map[string]metric {
	var walls []time.Duration
	var rates []float64
	for _, p := range timed {
		walls = append(walls, p.wall)
		rates = append(rates, p.instr/p.wall.Seconds()/1e6)
	}
	return map[string]metric{
		"wall_s":           {Value: median(walls).Seconds(), Unit: "s", Samples: len(walls)},
		"sim_minstr_per_s": {Value: medianF(rates), Unit: "Minstr/s", Samples: len(rates)},
		"setup_s":          {Value: median(b.setups).Seconds(), Unit: "s", Samples: len(b.setups)},
		"peak_rss_mb":      {Value: peakRSSMB(), Unit: "MB", Samples: 1},
	}
}

// peakRSSMB is the process's peak resident set size. VmHWM covers this
// program image only; getrusage's maxrss, the fallback, also keeps the
// peak of the shell that exec'd it.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// golden is the reference pass's digests recorded for one (workload,
// seed): the whole pass and each operation.
type golden struct {
	Pass string   `json:"pass"`
	Ops  []string `json:"ops"`
}

// recorded returns the digests recorded in digests.json.
func recorded(workload string, seed uint64) (golden, bool, error) {
	var all map[string]map[string]golden
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return golden{}, false, fmt.Errorf("digests.json: %w", err)
	}
	g, ok := all[workload][strconv.FormatUint(seed, 10)]
	return g, ok, nil
}

func (b *bench) report(fp map[string]any, metrics map[string]metric, extra map[string]any, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Printf("perfbench %s seed=%d trace=%v: %s metrics\n", b.def.name, b.seed, traced, kind)
	fmt.Printf("  why: %s\n", b.def.why)
	for _, k := range sortedMetricKeys(metrics) {
		m := metrics[k]
		fmt.Printf("  %-34s %14.6g %-9s n=%d\n", k, m.Value, m.Unit, m.Samples)
	}
	er := extra["error_rate"].(metric)
	fmt.Printf("  %-34s %14.6g %-9s n=%d (%d failed checks, %d fleet nodes lost to slack_ledger)\n",
		"error_rate", er.Value, er.Unit, er.Samples, b.failed, b.defectLosses)
	if walls, ok := extra["pass_wall_s"].([]float64); ok {
		fmt.Printf("  wall time of each timed pass (s): %.4g\n", walls)
	}
	if rows, ok := extra["self_time_ms"].(map[string]map[string]float64); ok {
		fmt.Printf("  spans (traced passes):  %-16s %6s %12s %12s\n", "name", "count", "total ms", "self ms")
		names := make([]string, 0, len(rows))
		for k := range rows {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			r := rows[k]
			fmt.Printf("  %24s%-16s %6.0f %12.2f %12.2f\n", "", k, r["count"], r["total"], r["self"])
		}
	}
	for _, k := range []string{"cancel_drain_ms", "invariant_violations", "note"} {
		if v, ok := extra[k]; ok {
			fmt.Printf("  %s: %v\n", k, v)
		}
	}
	fmt.Printf("  reference digest %s\n", b.ref.digest)
	for _, p := range b.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	rec := map[string]any{
		"record":      "perfbench",
		"workload":    b.def.name,
		"seed":        b.seed,
		"trace":       traced,
		"fingerprint": fp,
		"digest":      b.ref.digest,
		"op_digests":  opDigests(b.ref.ops),
		"metrics":     metrics,
	}
	for k, v := range extra {
		rec[k] = v
	}
	if line, err := json.Marshal(rec); err == nil {
		fmt.Println(string(line))
	}
}

func opDigests(ops []opResult) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.digest
	}
	return out
}
