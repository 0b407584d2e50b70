package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"memscale/internal/checkpoint"
	"memscale/internal/config"
	"memscale/internal/invariant"
	"memscale/internal/policies"
	"memscale/internal/sim"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// This file is the engine's checkpoint plane: warm-start forking for
// sweeps that share a simulation prefix, and checkpoint/resume for
// long-horizon runs that must survive interruption.

// ErrInterrupted reports a checkpoint-driven run stopped early through
// Job.Interrupt after capturing its state at the epoch boundary it
// halted on. Matched with errors.Is (it wraps the checkpoint plane's
// shared checkpoint.ErrInterrupted sentinel).
var ErrInterrupted = fmt.Errorf("runner: %w", checkpoint.ErrInterrupted)

// jobConfig derives the two configurations a job runs under: base is
// the configuration the unmanaged baseline pairs against (machine
// shape, gamma, and Mutate applied), cfg adds the policy's Configure
// hook on top. Keeping both matters for checkpointing — a resume must
// calibrate its baseline from base, not cfg, to reproduce the cold
// run's pairing exactly.
func jobConfig(job Job) (cfg, base config.Config) {
	cfg = config.Default()
	if job.Gamma > 0 {
		cfg.Policy.Gamma = job.Gamma
	}
	if job.Cores > 0 {
		cfg.Cores = job.Cores
	}
	if job.Channels > 0 {
		cfg.Channels = job.Channels
	}
	if job.Mutate != nil {
		job.Mutate(&cfg)
	}
	base = cfg
	if job.Spec.Configure != nil {
		job.Spec.Configure(&cfg)
	}
	return cfg, base
}

// WarmPrefix simulates prefixEpochs of an unmanaged (governor-free,
// fault-free, uninstrumented) run of mix under cfg and returns the
// snapshot at the epoch boundary. The snapshot may be forked into any
// number of variant runs: sim.Restore copies every slice and map, so
// parallel forks from one shared snapshot never race.
//
// shards requests the sharded event engine for the prefix simulation;
// the snapshot is the canonical serial image regardless of the count,
// so forks taken from a sharded prefix are bit-identical to forks
// taken from a serial one.
func (e *Engine) WarmPrefix(ctx context.Context, cfg config.Config, mix workload.Mix, prefixEpochs, shards int) (st *sim.SystemState, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()

	if prefixEpochs <= 0 {
		return nil, fmt.Errorf("runner: warm-start prefix epochs must be positive, got %d", prefixEpochs)
	}
	streams, err := mix.Streams(&cfg)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cfg, streams, sim.Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	for i := 0; i < prefixEpochs; i++ {
		if _, err := s.StepEpoch(ctx); err != nil {
			return nil, err
		}
	}
	return s.Save()
}

// warmKey groups jobs that can legitimately share one warm-up prefix:
// same mix, same prefix length, same post-Configure configuration with
// gamma zeroed out (gamma steers only the governor, which the
// unmanaged prefix does not run, so gamma-only variants share a
// prefix — the common sweep shape).
func warmKey(job Job, prefixEpochs int) string {
	cfg, _ := jobConfig(job)
	cfg.Policy.Gamma = 0
	return fmt.Sprintf("%s|%d|%+v", job.Mix.Name, prefixEpochs, cfg)
}

// RunEachWarm is RunEach with warm-start forking: jobs sharing a warm
// key simulate their first prefixEpochs once, then every job forks
// from the shared snapshot and runs its remaining epochs under its own
// governor. Results are indexed like jobs, exactly as RunEach.
//
// Warm-started outcomes are an approximation in the gem5
// fast-forwarding tradition: the managed run's governor only steers
// the post-prefix epochs, so the result is not bit-identical to a cold
// managed run of the same job (use RunWithCheckpoint/Resume when exact
// equivalence is required). The baseline pairing is unaffected — it is
// still the memoized cold unmanaged run of the full length.
func (e *Engine) RunEachWarm(ctx context.Context, jobs []Job, prefixEpochs int) ([]Outcome, []error) {
	if prefixEpochs <= 0 {
		return e.RunEach(ctx, jobs)
	}

	// Group jobs by warm key, keeping the first-seen order deterministic.
	type group struct {
		job  Job // representative: supplies cfg and mix for the prefix
		jobs []int
	}
	groups := map[string]*group{}
	var order []string
	preErr := make([]error, len(jobs))
	for i, job := range jobs {
		if job.Epochs <= prefixEpochs {
			preErr[i] = fmt.Errorf("runner: job epochs (%d) must exceed warm-start prefix epochs (%d)", job.Epochs, prefixEpochs)
			continue
		}
		if job.Warm != nil {
			preErr[i] = errors.New("runner: warm-start job already carries a snapshot")
			continue
		}
		key := warmKey(job, prefixEpochs)
		g := groups[key]
		if g == nil {
			g = &group{job: job}
			groups[key] = g
			order = append(order, key)
		}
		g.jobs = append(g.jobs, i)
	}

	// Phase 1: one unmanaged prefix per group, in parallel.
	snaps := make([]*sim.SystemState, len(order))
	snapErrs := ForEach(ctx, e.workers, len(order), func(ctx context.Context, gi int) error {
		g := groups[order[gi]]
		cfg, _ := jobConfig(g.job)
		snap, err := e.WarmPrefix(ctx, cfg, g.job.Mix, prefixEpochs, g.job.Shards)
		snaps[gi] = snap
		return err
	}, nil)

	warmed := make([]Job, len(jobs))
	copy(warmed, jobs)
	for gi, key := range order {
		g := groups[key]
		for _, i := range g.jobs {
			if snapErrs[gi] != nil {
				preErr[i] = fmt.Errorf("runner: warm-start prefix: %w", snapErrs[gi])
				continue
			}
			warmed[i].Warm = snaps[gi]
		}
	}

	// Phase 2: every job forks from its snapshot (or reports its
	// validation/prefix error) on the same worker pool.
	return e.each(ctx, jobs, func(ctx context.Context, i int) (Outcome, error) {
		if preErr[i] != nil {
			return Outcome{}, preErr[i]
		}
		return e.Run(ctx, warmed[i])
	})
}

// RunWithCheckpoint is Run with a mid-flight snapshot: the managed run
// captures its full state after ckEpoch epochs and continues to
// job.Epochs. The returned checkpoint carries everything Resume needs —
// meta identifying the run, both configurations, and the state image —
// and the outcome is bit-identical to a plain Run of the same job (both
// step the same epoch loop). Unlike Run, it honours job.Interrupt.
func (e *Engine) RunWithCheckpoint(ctx context.Context, job Job, ckEpoch int) (Outcome, *checkpoint.Checkpoint, error) {
	if ckEpoch <= 0 || ckEpoch > job.Epochs {
		return Outcome{}, nil, fmt.Errorf("runner: checkpoint epoch %d outside run length [1,%d]", ckEpoch, job.Epochs)
	}
	if job.Warm != nil {
		return Outcome{}, nil, errors.New("runner: checkpointing a warm-started job is not supported")
	}
	return e.execute(ctx, job, nil, ckEpoch)
}

// ResumeJob describes how to continue a checkpointed run.
type ResumeJob struct {
	// Checkpoint is the decoded container to resume from.
	Checkpoint *checkpoint.Checkpoint

	// Epochs is the total run length in OS quanta (including the
	// epochs already completed at the snapshot); it must exceed the
	// checkpoint's completed epoch count.
	Epochs int

	// Timeline, Telemetry, and Timeout mirror the Job fields: they
	// instrument the resumed portion and bound its host wall-clock
	// time.
	Timeline  bool
	Telemetry *telemetry.Options
	Timeout   time.Duration

	// Shards mirrors Job.Shards for the resumed portion. A checkpoint
	// written under any shard count restores under any other: the saved
	// event state is the canonical serial image either way.
	Shards int
}

// Resume continues a checkpointed run to rj.Epochs total epochs and
// pairs it against the cold unmanaged baseline of the full length,
// exactly as the original run would have been. A resumed run's result
// is bit-identical to the uninterrupted run of the same job (same
// governor, same configuration, same fault schedule) — the crash
// recovery counterpart to the fault plane's panic isolation.
//
// The resumed portion runs the container's fault schedule under the
// container's attempt number. Resumes do not retry: transient aborts
// are drawn at epoch 0 only, which a resume never re-runs, so a resume
// completes on its first attempt (Outcome.Attempts is 1) and adds no
// transient aborts. Its retry budget is unreachable through the fault
// plane.
func (e *Engine) Resume(ctx context.Context, rj ResumeJob) (Outcome, error) {
	ck := rj.Checkpoint
	if ck == nil || ck.State == nil {
		return Outcome{}, errors.New("runner: resume requires a checkpoint with state")
	}
	if rj.Epochs <= ck.Meta.Epochs {
		return Outcome{}, fmt.Errorf("runner: resume epochs (%d) must exceed the checkpoint's completed %d", rj.Epochs, ck.Meta.Epochs)
	}
	// Invariant: the container's meta and state image must agree on how
	// many epochs the snapshot covers — a mismatch means a hand-edited
	// or miswritten container, and resuming it would silently shift the
	// schedule.
	if err := invariant.Check("resume_epoch", ck.State.EpochIdx == ck.Meta.Epochs,
		"checkpoint meta records %d completed epochs but the state image is at epoch %d",
		ck.Meta.Epochs, ck.State.EpochIdx); err != nil {
		return Outcome{}, fmt.Errorf("runner: %w", err)
	}
	mix, err := workload.ByName(ck.Meta.Mix)
	if err != nil {
		return Outcome{}, fmt.Errorf("runner: resume: %w", err)
	}
	var spec policies.Spec
	if ck.Meta.Policy != "" {
		if spec, err = policies.ByName(ck.Meta.Policy); err != nil {
			return Outcome{}, fmt.Errorf("runner: resume: %w", err)
		}
	}
	out, _, err := e.execute(ctx, Job{
		Mix: mix, Spec: spec, Epochs: rj.Epochs, Shards: rj.Shards,
		Timeline: rj.Timeline, Telemetry: rj.Telemetry, Faults: ck.Meta.Faults, Timeout: rj.Timeout,
	}, ck, 0)
	return out, err
}

// WarmGroups reports how many distinct warm-up prefixes a job set
// would simulate under RunEachWarm — the sweep-planning counterpart to
// BaselineCache.Stats.
func WarmGroups(jobs []Job, prefixEpochs int) int {
	keys := map[string]struct{}{}
	for _, job := range jobs {
		if job.Epochs > prefixEpochs {
			keys[warmKey(job, prefixEpochs)] = struct{}{}
		}
	}
	return len(keys)
}
