package runner

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"memscale/internal/config"
	"memscale/internal/faults"
	"memscale/internal/policies"
)

// entryPoints are the public ways into the shared run pipeline; the
// hardening tests drive every one of them through runVia.
var entryPoints = []string{"Run", "RunWithCheckpoint", "Resume"}

// containerAttempt is the attempt number the Resume entry point's
// containers record, so a resume's retries visibly count from it.
const containerAttempt = 1

// runVia runs job on a fresh engine with opts through one entry point:
// Run; RunWithCheckpoint at epoch 1; or Resume to job.Epochs+1 of a
// checkpoint taken after job.Epochs epochs of an undisturbed copy of
// the job (no Faults or Timeout). The resume applies the job's Faults
// and Timeout to its resumed portion, starting at attempt
// containerAttempt.
func runVia(ctx context.Context, t *testing.T, entry string, opts Options, job Job) (Outcome, error) {
	t.Helper()
	eng := New(opts)
	switch entry {
	case "Run":
		return eng.Run(ctx, job)
	case "RunWithCheckpoint":
		out, _, err := eng.RunWithCheckpoint(ctx, job, 1)
		return out, err
	}
	clean := job
	clean.Faults, clean.Timeout = nil, 0
	_, ck, err := New(Options{Workers: 1}).RunWithCheckpoint(context.Background(), clean, clean.Epochs)
	if err != nil {
		t.Fatalf("checkpoint for resume: %v", err)
	}
	ck.Meta.Faults, ck.Meta.Attempt = job.Faults, containerAttempt
	return eng.Resume(ctx, ResumeJob{Checkpoint: ck, Epochs: job.Epochs + 1, Timeout: job.Timeout})
}

func TestRunRecoversMutatePanic(t *testing.T) {
	for _, entry := range entryPoints {
		t.Run(entry, func(t *testing.T) {
			job := smallJob(t, "ILP2", policies.FastPD)
			var want any = "poisoned config hook"
			job.Mutate = func(*config.Config) { panic(want) }
			if entry == "Resume" {
				// A resume takes its configuration from the container and
				// never runs Mutate: poison its resumed epoch instead.
				job.Mutate = nil
				job.Faults = &faults.Config{Seed: 1, PanicEnabled: true, PanicEpoch: 1}
				want = faults.InjectedPanic{Epoch: 1}
			}
			_, err := runVia(context.Background(), t, entry, Options{Workers: 1}, job)
			if !errors.Is(err, ErrRunPanicked) {
				t.Fatalf("err = %v, want ErrRunPanicked", err)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err %T does not unwrap to *PanicError", err)
			}
			if pe.Value != want {
				t.Errorf("panic value = %#v, want %#v", pe.Value, want)
			}
			if len(pe.Stack) == 0 || !bytes.Contains(pe.Stack, []byte("goroutine")) {
				t.Errorf("panic stack missing: %q", pe.Stack)
			}
		})
	}
}

func TestInjectedPanicIsolatedFromBatch(t *testing.T) {
	jobs := []Job{
		smallJob(t, "ILP2", policies.MemScale),
		smallJob(t, "MID1", policies.MemScale),
		smallJob(t, "ILP3", policies.MemScale),
	}
	jobs[1].Faults = &faults.Config{Seed: 1, PanicEnabled: true, PanicEpoch: 0}
	eng := New(Options{Workers: 3})
	outs, errs := eng.RunEach(context.Background(), jobs)
	if !errors.Is(errs[1], ErrRunPanicked) {
		t.Fatalf("panicked job err = %v, want ErrRunPanicked", errs[1])
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("err %T is not a *PanicError", errs[1])
	}
	if ip, ok := pe.Value.(faults.InjectedPanic); !ok || ip.Epoch != 0 {
		t.Errorf("panic value = %#v, want faults.InjectedPanic{Epoch: 0}", pe.Value)
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Errorf("job %d err = %v, want nil", i, errs[i])
		}
		if outs[i].Res.Duration <= 0 {
			t.Errorf("job %d has no result despite nil error", i)
		}
	}
}

func TestJobWatchdogTimeout(t *testing.T) {
	for _, entry := range entryPoints {
		t.Run(entry, func(t *testing.T) {
			job := smallJob(t, "ILP2", policies.FastPD)
			job.Timeout = time.Nanosecond
			_, err := runVia(context.Background(), t, entry, Options{Workers: 1}, job)
			if !errors.Is(err, ErrJobTimeout) {
				t.Fatalf("err = %v, want ErrJobTimeout", err)
			}

			// The engine-level default applies when the job sets none.
			opts := Options{Workers: 1, JobTimeout: time.Nanosecond}
			_, err = runVia(context.Background(), t, entry, opts, smallJob(t, "ILP2", policies.FastPD))
			if !errors.Is(err, ErrJobTimeout) {
				t.Fatalf("engine default watchdog: err = %v, want ErrJobTimeout", err)
			}
		})
	}
}

func TestParentCancellationIsNotATimeout(t *testing.T) {
	for _, entry := range entryPoints {
		t.Run(entry, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			job := smallJob(t, "ILP2", policies.FastPD)
			job.Timeout = time.Minute
			_, err := runVia(ctx, t, entry, Options{Workers: 1}, job)
			if !errors.Is(err, context.Canceled) || errors.Is(err, ErrJobTimeout) {
				t.Fatalf("err = %v, want context.Canceled and not ErrJobTimeout", err)
			}
		})
	}
}

// abortingSeed finds a seed whose transient-abort draw fires on
// attempt 0 but not on attempt wantClear.
func abortingSeed(t *testing.T, rate float64, wantClear int) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 4096; seed++ {
		cfg := faults.Config{Seed: seed, TransientAbortRate: rate}
		first, err := faults.New(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		clear, err := faults.New(cfg, wantClear)
		if err != nil {
			t.Fatal(err)
		}
		if first.EpochPlan(0).Abort && !clear.EpochPlan(0).Abort {
			return seed
		}
	}
	t.Fatal("no seed aborts attempt 0 and clears the retry")
	return 0
}

// resumedAttempts is what a Resume reports under an abort rate: the
// fault plane draws transient aborts at epoch 0 only, which a resume
// never re-runs, so the resumed portion completes on its first attempt.
// Attempts counts from the container's attempt, so it is 1, not
// containerAttempt+1.
const resumedAttempts = 1

func TestTransientFaultRetries(t *testing.T) {
	for _, entry := range entryPoints {
		t.Run(entry, func(t *testing.T) {
			job := smallJob(t, "ILP2", policies.MemScale)
			job.Faults = &faults.Config{
				Seed:               abortingSeed(t, 0.5, 1),
				TransientAbortRate: 0.5,
			}
			attempts, aborts := 2, uint64(1)
			if entry == "Resume" {
				attempts, aborts = resumedAttempts, 0
			}
			out, err := runVia(context.Background(), t, entry, Options{Workers: 1}, job)
			if err != nil {
				t.Fatalf("%s: %v", entry, err)
			}
			if out.Attempts != attempts {
				t.Errorf("Attempts = %d, want %d", out.Attempts, attempts)
			}
			if out.Res.Faults.TransientAborts != aborts {
				t.Errorf("TransientAborts = %d, want %d", out.Res.Faults.TransientAborts, aborts)
			}
		})
	}
}

func TestTransientFaultExhaustsRetries(t *testing.T) {
	for _, entry := range entryPoints {
		t.Run(entry, func(t *testing.T) {
			job := smallJob(t, "ILP2", policies.MemScale)
			job.Faults = &faults.Config{Seed: 3, TransientAbortRate: 1, MaxRunRetries: 2}
			out, err := runVia(context.Background(), t, entry, Options{Workers: 1}, job)
			if entry == "Resume" {
				if err != nil || out.Attempts != resumedAttempts {
					t.Fatalf("resume under abort rate 1: attempts %d, err %v; want %d, nil", out.Attempts, err, resumedAttempts)
				}
				return
			}
			if !errors.Is(err, faults.ErrTransient) {
				t.Fatalf("err = %v, want ErrTransient after exhausted retries", err)
			}
		})
	}
}

func TestInvalidFaultConfigRejected(t *testing.T) {
	for _, entry := range entryPoints {
		t.Run(entry, func(t *testing.T) {
			job := smallJob(t, "ILP2", policies.MemScale)
			job.Faults = &faults.Config{Seed: 1, RefreshStormRate: 2}
			_, err := runVia(context.Background(), t, entry, Options{Workers: 1}, job)
			if !errors.Is(err, faults.ErrInvalidConfig) {
				t.Fatalf("err = %v, want ErrInvalidConfig", err)
			}
		})
	}
}

func TestRetriedRunMatchesUnabortedSchedule(t *testing.T) {
	// The epoch fault plans are attempt-independent, so a retried run
	// must land on the same result as the same schedule without the
	// abort draw (rate zeroed, same seed).
	seed := abortingSeed(t, 0.5, 1)
	withAbort := smallJob(t, "ILP2", policies.MemScale)
	withAbort.Faults = &faults.Config{
		Seed:               seed,
		RefreshStormRate:   0.4,
		RelockFailRate:     0.4,
		CounterCorruptRate: 0.3,
		ThermalRate:        0.3,
		TransientAbortRate: 0.5,
	}
	clean := withAbort
	fc := *withAbort.Faults
	fc.TransientAbortRate = 0
	clean.Faults = &fc

	eng := New(Options{Workers: 1})
	got, err := eng.Run(context.Background(), withAbort)
	if err != nil {
		t.Fatalf("retried run: %v", err)
	}
	want, err := eng.Run(context.Background(), clean)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if got.Attempts != 2 || want.Attempts != 1 {
		t.Fatalf("attempts = %d/%d, want 2/1", got.Attempts, want.Attempts)
	}
	gf, wf := got.Res.Faults, want.Res.Faults
	gf.TransientAborts = 0
	if gf != wf {
		t.Errorf("fault counts diverge: retried %+v vs clean %+v", gf, wf)
	}
	if got.Res.Memory != want.Res.Memory {
		t.Errorf("memory energy diverges: %+v vs %+v", got.Res.Memory, want.Res.Memory)
	}
	if got.Res.Duration != want.Res.Duration {
		t.Errorf("duration diverges: %v vs %v", got.Res.Duration, want.Res.Duration)
	}
}
