package runner

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"memscale/internal/config"
	"memscale/internal/policies"
	"memscale/internal/sim"
	"memscale/internal/workload"
)

// smallJob keeps runner tests fast: 4 cores, 2 channels, one quantum.
func smallJob(t testing.TB, mixName string, spec policies.Spec) Job {
	t.Helper()
	mix, err := workload.ByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	return Job{Mix: mix, Spec: spec, Epochs: 1, Cores: 4, Channels: 2}
}

func TestBaselineExecutesExactlyOncePerConfig(t *testing.T) {
	// 3 policies x 2 mixes = 6 jobs sharing 2 distinct baselines.
	specs := []policies.Spec{policies.FastPD, policies.SlowPD, policies.StaticBest}
	var jobs []Job
	for _, spec := range specs {
		for _, mixName := range []string{"ILP2", "MID1"} {
			jobs = append(jobs, smallJob(t, mixName, spec))
		}
	}
	eng := New(Options{Workers: 4})
	outs, err := eng.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(jobs) {
		t.Fatalf("%d outcomes for %d jobs", len(outs), len(jobs))
	}
	hits, misses := eng.Cache().Stats()
	if misses != 2 {
		t.Errorf("baseline simulated %d times, want exactly 2 (one per distinct config)", misses)
	}
	if hits != len(jobs)-2 {
		t.Errorf("cache hits = %d, want %d", hits, len(jobs)-2)
	}
}

func TestGammaSweepSharesOneBaseline(t *testing.T) {
	// The baseline runs no governor, so gamma must not split the key.
	mix, err := workload.ByName("ILP2")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, gamma := range []float64{0.01, 0.05, 0.10} {
		jobs = append(jobs, Job{
			Mix: mix, Spec: policies.FastPD,
			Epochs: 1, Gamma: gamma, Cores: 4, Channels: 2,
		})
	}
	eng := New(Options{Workers: 2})
	if _, err := eng.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if _, misses := eng.Cache().Stats(); misses != 1 {
		t.Errorf("gamma sweep simulated %d baselines, want 1", misses)
	}
}

func TestRunEachOrderingAndProgress(t *testing.T) {
	mixNames := []string{"ILP2", "MID1", "ILP3", "MID4"}
	var jobs []Job
	for _, name := range mixNames {
		jobs = append(jobs, smallJob(t, name, policies.FastPD))
	}
	var mu sync.Mutex
	var dones []int
	eng := New(Options{Workers: 4, OnResult: func(pr Progress) {
		mu.Lock()
		defer mu.Unlock()
		dones = append(dones, pr.Done)
		if pr.Total != len(jobs) {
			t.Errorf("progress total = %d, want %d", pr.Total, len(jobs))
		}
		if pr.Err == nil && pr.Outcome.Mix.Name != jobs[pr.Index].Mix.Name {
			t.Errorf("progress index %d carries outcome for %s", pr.Index, pr.Outcome.Mix.Name)
		}
	}})
	outs, errs := eng.RunEach(context.Background(), jobs)
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if out.Mix.Name != mixNames[i] {
			t.Errorf("outs[%d] = %s, want %s (submission-order results)", i, out.Mix.Name, mixNames[i])
		}
	}
	if len(dones) != len(jobs) {
		t.Fatalf("%d progress callbacks for %d jobs", len(dones), len(jobs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Errorf("progress Done sequence %v not monotonically complete", dones)
			break
		}
	}
}

func TestRunEachCollectsPerJobErrors(t *testing.T) {
	good := smallJob(t, "ILP2", policies.FastPD)
	bad := good
	bad.Epochs = 0 // rejected by the engine
	outs, errs := New(Options{Workers: 2}).RunEach(context.Background(), []Job{good, bad, good})
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("good jobs failed: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Error("bad job must error")
	}
	if outs[0].Res.Duration <= 0 || outs[2].Res.Duration <= 0 {
		t.Error("good jobs must still produce outcomes")
	}
}

func TestRunAllCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{smallJob(t, "ILP2", policies.FastPD), smallJob(t, "MID1", policies.FastPD)}
	_, err := New(Options{Workers: 2}).RunAll(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestOutcomeMetricGuards(t *testing.T) {
	mix, err := workload.ByName("MID1")
	if err != nil {
		t.Fatal(err)
	}
	// Zero-energy, zero-CPI baseline must not produce NaN/Inf.
	var out Outcome
	out.Mix = mix
	out.Res.CPI = []float64{1, 1, 1, 1}
	out.Base.CPI = []float64{0, 0, 0, 0}
	if got := out.MemorySavings(); got != 0 {
		t.Errorf("MemorySavings with zero baseline = %g, want 0", got)
	}
	if got := out.SystemSavings(); got != 0 {
		t.Errorf("SystemSavings with zero baseline = %g, want 0", got)
	}
	avg, worst := out.CPIIncrease()
	if avg != 0 || worst != 0 {
		t.Errorf("CPIIncrease with zero baseline = %g/%g, want 0/0", avg, worst)
	}
}

func TestMutateAffectsBothRunsAndKey(t *testing.T) {
	mix, err := workload.ByName("ILP2")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(channels int) Job {
		return Job{
			Mix: mix, Spec: policies.FastPD, Epochs: 1, Cores: 4,
			Mutate: func(c *config.Config) { c.Channels = channels },
		}
	}
	eng := New(Options{Workers: 2})
	outs, err := eng.RunAll(context.Background(), []Job{mk(2), mk(1), mk(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := eng.Cache().Stats(); misses != 2 {
		t.Errorf("distinct mutations share %d baselines, want 2", misses)
	}
	if outs[0].Base.Memory.Memory() == outs[1].Base.Memory.Memory() {
		t.Error("different channel counts must produce different baselines")
	}
}

// sameResult asserts two managed results are Float64bits-identical in
// their headline metrics and equal everywhere else.
func sameResult(t *testing.T, label string, got, want sim.Result) {
	t.Helper()
	for _, m := range []struct {
		name string
		a, b float64
	}{
		{"memory energy", got.Memory.Memory(), want.Memory.Memory()},
		{"system energy", got.SystemEnergy(), want.SystemEnergy()},
		{"mean CPI", got.MeanCPI(), want.MeanCPI()},
	} {
		if math.Float64bits(m.a) != math.Float64bits(m.b) {
			t.Errorf("%s: %s = %v, want %v", label, m.name, m.a, m.b)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: results differ:\n got %+v\nwant %+v", label, got, want)
	}
}

func TestInterruptSemantics(t *testing.T) {
	job := smallJob(t, "ILP2", policies.MemScale)
	job.Epochs = 2
	stop := make(chan struct{})
	close(stop)
	interrupted := job
	interrupted.Interrupt = stop
	eng := New(Options{Workers: 1})
	ctx := context.Background()

	want, err := eng.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	// Plain Run ignores the soft stop.
	got, err := eng.Run(ctx, interrupted)
	if err != nil {
		t.Fatalf("Run with a fired Interrupt: %v", err)
	}
	sameResult(t, "Run with a fired Interrupt", got.Res, want.Res)

	// RunWithCheckpoint honours it after the first epoch.
	_, ck, err := eng.RunWithCheckpoint(ctx, interrupted, job.Epochs)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunWithCheckpoint err = %v, want ErrInterrupted", err)
	}
	if ck == nil || ck.Meta.Epochs != 1 || ck.State.EpochIdx != 1 {
		t.Fatalf("interrupt checkpoint = %+v, want one completed epoch", ck)
	}

	// Resuming the interrupted run lands on the uninterrupted result.
	res, err := eng.Resume(ctx, ResumeJob{Checkpoint: ck, Epochs: job.Epochs})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	sameResult(t, "resumed run", res.Res, want.Res)
	if res.NonMem != want.NonMem || res.Attempts != 1 {
		t.Errorf("resumed pairing nonmem/attempts = %v/%d, want %v/1", res.NonMem, res.Attempts, want.NonMem)
	}
}
