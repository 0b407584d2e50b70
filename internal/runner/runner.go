// Package runner is the parallel sweep/batch execution engine behind
// the public Run/Sweep API and the experiment harness. It schedules
// (mix, policy, gamma, epochs, cores, channels) jobs onto a bounded
// worker pool, memoizes the unmanaged baseline runs the jobs share,
// and honours context cancellation mid-simulation.
//
// Determinism: parallelism is across jobs only — each simulation is
// the same single-threaded discrete-event run it always was, so one
// job's result is bit-identical whether the batch ran on one worker or
// sixteen. Results come back indexed by submission order, never by
// completion order.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"memscale/internal/checkpoint"
	"memscale/internal/config"
	"memscale/internal/faults"
	"memscale/internal/policies"
	"memscale/internal/sim"
	"memscale/internal/stats"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrRunPanicked marks a job whose simulation panicked. The worker
	// recovered, so one poisoned job never takes down the batch; the
	// concrete error is a *PanicError carrying the value and stack.
	ErrRunPanicked = errors.New("run panicked")

	// ErrJobTimeout marks a job that exceeded its watchdog deadline
	// (Job.Timeout or Options.JobTimeout) while the surrounding batch
	// was still live.
	ErrJobTimeout = errors.New("job deadline exceeded")
)

// PanicError is the error a recovered job panic is reported as. It
// unwraps to ErrRunPanicked.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("runner: run panicked: %v", p.Value) }

// Unwrap lets errors.Is(err, ErrRunPanicked) match.
func (p *PanicError) Unwrap() error { return ErrRunPanicked }

// Job is one paired simulation: a (mix, policy) pair run against the
// memoized unmanaged baseline of the same configuration.
type Job struct {
	Mix  workload.Mix
	Spec policies.Spec

	// Epochs is the run length in OS quanta; it must be positive.
	Epochs int

	// Gamma, when positive, sets the allowed performance degradation.
	Gamma float64

	// Cores and Channels, when positive, override the machine shape.
	Cores, Channels int

	// Shards, when > 1, lets both the managed run and its memoized
	// baseline use up to that many event-engine shards
	// (sim.Options.Shards). Every run is bit-identical at any shard
	// count — telemetry included — and the engine runs one shard when
	// the workload or governor cannot split.
	Shards int

	// Mutate, when non-nil, edits the configuration after the fields
	// above are applied and before the policy's own Configure hook;
	// both the baseline and the managed run see the mutation.
	Mutate func(*config.Config)

	// Timeline retains per-epoch records in the managed run's Result.
	Timeline bool

	// Telemetry, when non-nil, instruments the managed run with a
	// private recorder (one per job, so parallel sweeps never share
	// mutable state) and attaches its export to the Outcome. The
	// baseline run is never instrumented: it is memoized and shared
	// across jobs.
	Telemetry *telemetry.Options

	// Faults, when non-nil, injects the deterministic disturbance
	// schedule into the managed run. The baseline run is never
	// faulted: it is memoized, shared across jobs, and represents the
	// pristine reference the paired metrics compare against. Attempts
	// aborted by an injected transient fault are retried automatically
	// (up to the config's MaxRunRetries) with the identical hardware
	// fault schedule.
	Faults *faults.Config

	// Timeout, when positive, is this job's watchdog deadline in host
	// wall-clock time; zero falls back to Options.JobTimeout. A job
	// that overruns fails with ErrJobTimeout without disturbing the
	// rest of the batch.
	Timeout time.Duration

	// Warm, when non-nil, is an unmanaged warm-up snapshot the managed
	// run forks from instead of simulating the shared prefix itself
	// (see Engine.WarmPrefix and RunEachWarm). Epochs still counts the
	// total run length including the prefix. The baseline pairing is
	// unchanged: it is the cold unmanaged run of the full length.
	Warm *sim.SystemState

	// Interrupt, when non-nil, is a soft-stop signal honored by
	// checkpoint-driven runs (RunWithCheckpoint): once it fires the run
	// finishes its current epoch, captures the state at that boundary,
	// and returns the partial checkpoint with ErrInterrupted. A nil
	// channel (the zero value) never fires. Plain Run ignores it.
	Interrupt <-chan struct{}
}

// Outcome is one managed run paired with its baseline.
type Outcome struct {
	Mix    workload.Mix
	Policy string
	NonMem float64 // rest-of-system watts used for both runs
	Base   sim.Result
	Res    sim.Result

	// Telemetry is the managed run's export when the job requested it,
	// nil otherwise.
	Telemetry *telemetry.RunExport

	// Attempts is how many times the managed run executed: 1 plus the
	// retries consumed by injected transient faults.
	Attempts int

	// Shards is the shard count the managed run's event engine actually
	// used (sim.System.ParallelShards): 1 for the serial engine —
	// whether by request or by eligibility fallback — and the resolved
	// count under the sharded engine.
	Shards int
}

// SystemEnergy returns the full-system energy of r using the
// outcome's calibrated rest-of-system power.
func (o Outcome) SystemEnergy(r sim.Result) float64 {
	return r.Memory.Memory() + o.NonMem*r.Duration.Seconds()
}

// MemorySavings returns the memory-subsystem energy savings vs the
// baseline. A degenerate zero-energy baseline yields 0, not NaN.
func (o Outcome) MemorySavings() float64 {
	base := o.Base.Memory.Memory()
	if base == 0 {
		return 0
	}
	return 1 - o.Res.Memory.Memory()/base
}

// SystemSavings returns the full-system energy savings vs the
// baseline. A degenerate zero-energy baseline yields 0, not NaN.
func (o Outcome) SystemSavings() float64 {
	base := o.SystemEnergy(o.Base)
	if base == 0 {
		return 0
	}
	return 1 - o.SystemEnergy(o.Res)/base
}

// CPIIncrease returns the multiprogram-average and worst-application
// CPI increases vs the baseline (the Figure 6 metrics). Application
// CPI is the mean over its replicated instances; applications whose
// baseline retired no instructions (zero CPI) are skipped rather than
// producing NaN/Inf.
func (o Outcome) CPIIncrease() (avg, worst float64) {
	perApp := map[string]*stats.Series{}
	basePerApp := map[string]*stats.Series{}
	for i := range o.Res.CPI {
		app := o.Mix.Assignment(i)
		if perApp[app] == nil {
			perApp[app] = &stats.Series{}
			basePerApp[app] = &stats.Series{}
		}
		perApp[app].Add(o.Res.CPI[i])
		basePerApp[app].Add(o.Base.CPI[i])
	}
	var s stats.Series
	for app, cur := range perApp {
		base := basePerApp[app].Mean()
		if base == 0 {
			continue
		}
		s.Add(cur.Mean()/base - 1)
	}
	if s.N() == 0 {
		return 0, 0
	}
	return s.Mean(), s.Max()
}

// Progress reports one finished job to the Options.OnResult callback.
type Progress struct {
	// Done is the number of jobs finished so far (including this one);
	// Total is the batch size. Callbacks arrive in completion order,
	// serialized on one goroutine at a time.
	Done, Total int

	// Index is the job's position in the submitted slice.
	Index int

	Job     Job
	Outcome Outcome // zero when Err != nil
	Err     error
}

// Options configure an Engine.
type Options struct {
	// Workers bounds the number of concurrently executing jobs;
	// zero or negative means runtime.GOMAXPROCS(0).
	Workers int

	// Cache, when non-nil, shares baseline memoization with other
	// engines; nil creates a private cache.
	Cache *BaselineCache

	// JobTimeout, when positive, is the default per-job watchdog
	// deadline (host wall-clock); Job.Timeout overrides it per job.
	JobTimeout time.Duration

	// OnResult, when non-nil, is invoked after every finished batch
	// job (successful or not).
	OnResult func(Progress)
}

// Engine executes jobs on a worker pool with shared baseline
// memoization. An Engine is safe for concurrent use.
type Engine struct {
	workers    int
	cache      *BaselineCache
	jobTimeout time.Duration
	onResult   func(Progress)
}

// New builds an engine.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewBaselineCache()
	}
	return &Engine{workers: w, cache: cache, jobTimeout: opts.JobTimeout, onResult: opts.OnResult}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's baseline cache.
func (e *Engine) Cache() *BaselineCache { return e.cache }

// Run executes one job: the baseline (through the cache) and the
// managed run, paired into an Outcome. The whole call is panic
// isolated — a panicking simulation (or Mutate hook) surfaces as a
// *PanicError instead of unwinding the caller — and attempts killed
// by an injected transient fault are retried with the same hardware
// fault schedule, up to the fault config's retry budget.
func (e *Engine) Run(ctx context.Context, job Job) (Outcome, error) {
	out, _, err := e.execute(ctx, job, nil, 0)
	return out, err
}

// execute is the one pipeline behind Run, RunWithCheckpoint and
// Resume: panic isolation, fault validation, the baseline lookup, and
// the attempt loop that retries transient aborts. A cold run resolves
// its configurations from the job and starts from job.Warm (nil for a
// fresh system); a resume (from non-nil) starts from the container's
// configurations, state and attempt number, and rebuilds its governor
// with the container's calibrated non-memory power. ckEpoch > 0 makes
// the run a checkpointing one (see attempt); the checkpoint comes back
// with a completed or interrupted run.
func (e *Engine) execute(ctx context.Context, job Job, from *checkpoint.Checkpoint, ckEpoch int) (out Outcome, ck *checkpoint.Checkpoint, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, ck, err = Outcome{}, nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()

	if err := ctx.Err(); err != nil {
		return Outcome{}, nil, err
	}
	if job.Epochs <= 0 {
		return Outcome{}, nil, fmt.Errorf("runner: job epochs must be positive, got %d", job.Epochs)
	}
	retries := 0
	if job.Faults != nil {
		if err := job.Faults.Validate(); err != nil {
			return Outcome{}, nil, fmt.Errorf("runner: %w", err)
		}
		retries = job.Faults.WithDefaults().MaxRunRetries
	}

	var cfg, baseCfg config.Config
	start, first := job.Warm, 0
	if from != nil {
		// The container's configurations are already resolved: the
		// spec's Configure hook must not run again.
		cfg, baseCfg, start, first = from.Config, from.Base, from.State, from.Meta.Attempt
	} else {
		cfg, baseCfg = jobConfig(job)
	}
	base, nonMem, err := e.cache.Baseline(ctx, baseCfg, job.Mix, job.Epochs, job.Shards)
	if err != nil {
		return Outcome{}, nil, err
	}
	govNonMem := nonMem
	if from != nil {
		govNonMem = from.Meta.NonMem
	}

	var aborts uint64
	for n := 0; ; n++ {
		out, snap, err := e.attempt(ctx, job, cfg, start, govNonMem, first+n, ckEpoch)
		if snap != nil {
			ck = &checkpoint.Checkpoint{
				Meta: checkpoint.Meta{
					Mix:     job.Mix.Name,
					Policy:  job.Spec.Name,
					Gamma:   cfg.Policy.Gamma,
					NonMem:  nonMem,
					Epochs:  snap.EpochIdx,
					Faults:  job.Faults,
					Attempt: first + n,
				},
				Config: cfg,
				Base:   baseCfg,
				State:  snap,
			}
		}
		if err == nil {
			out.Mix, out.Policy = job.Mix, job.Spec.Name
			out.NonMem, out.Base = nonMem, base
			out.Attempts = n + 1
			// Aborted attempts discarded their partial state; fold the
			// retries they cost into the surviving run's fault tally.
			out.Res.Faults.TransientAborts += aborts
			return out, ck, nil
		}
		if errors.Is(err, ErrInterrupted) {
			// The checkpoint carries the boundary the run stopped on;
			// there is no finished outcome to pair.
			return Outcome{}, ck, err
		}
		if !errors.Is(err, faults.ErrTransient) || n >= retries || ctx.Err() != nil {
			return Outcome{}, nil, err
		}
		aborts++
	}
}

// attempt executes one managed-run attempt, number n of the fault
// schedule, under the job's watchdog deadline, with a fresh injector,
// trace streams, governor and recorder (all are stateful and must not
// leak across attempts). It restores start when one is given and steps
// the system epoch by epoch to the job's horizon; the stepped run is
// bit-identical to RunFor.
//
// A checkpointing attempt (ckEpoch > 0) also returns the state saved
// after ckEpoch epochs, and honours job.Interrupt: once the channel
// fires, the attempt finishes its current epoch and returns the state
// at that boundary with ErrInterrupted.
func (e *Engine) attempt(ctx context.Context, job Job, cfg config.Config, start *sim.SystemState, nonMem float64, n, ckEpoch int) (Outcome, *sim.SystemState, error) {
	timeout := job.Timeout
	if timeout <= 0 {
		timeout = e.jobTimeout
	}
	parent := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var inj *faults.Injector
	if job.Faults != nil {
		var err error
		if inj, err = faults.New(*job.Faults, n); err != nil {
			return Outcome{}, nil, fmt.Errorf("runner: %w", err)
		}
	}
	streams, err := job.Mix.Streams(&cfg)
	if err != nil {
		return Outcome{}, nil, err
	}
	var gov sim.Governor
	if job.Spec.Governor != nil {
		gov = job.Spec.Governor(&cfg, nonMem)
	}
	var rec *telemetry.Recorder
	if job.Telemetry != nil {
		rec = telemetry.NewRecorder(*job.Telemetry)
		rec.NonMemPowerW.Set(nonMem)
		rec.GammaBound.Set(cfg.Policy.Gamma)
	}
	opts := sim.Options{
		Governor:     gov,
		NonMemPower:  nonMem,
		KeepTimeline: job.Timeline,
		Telemetry:    rec,
		Faults:       inj,
		Shards:       job.Shards,
	}
	var s *sim.System
	if start != nil {
		s, err = sim.Restore(cfg, streams, opts, start)
	} else {
		s, err = sim.New(cfg, streams, opts)
	}
	if err != nil {
		return Outcome{}, nil, err
	}

	horizon := min(config.Time(job.Epochs)*cfg.Policy.EpochLength, sim.DefaultMaxDuration)
	var snap *sim.SystemState
	for {
		ep, err := s.StepEpoch(ctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
				return Outcome{}, nil, fmt.Errorf("runner: job exceeded %v watchdog: %w", timeout, ErrJobTimeout)
			}
			return Outcome{}, nil, err
		}
		if ep.Index+1 == ckEpoch {
			if snap, err = s.Save(); err != nil {
				return Outcome{}, nil, fmt.Errorf("runner: checkpoint save: %w", err)
			}
		}
		if ep.End >= horizon {
			break
		}
		if ckEpoch > 0 {
			select {
			case <-job.Interrupt:
				if snap, err = s.Save(); err != nil {
					return Outcome{}, nil, fmt.Errorf("runner: interrupt checkpoint save: %w", err)
				}
				return Outcome{}, snap, ErrInterrupted
			default:
			}
		}
	}
	res := s.Finalize()
	if ckEpoch > 0 && snap == nil {
		return Outcome{}, nil, fmt.Errorf("runner: run ended before checkpoint epoch %d", ckEpoch)
	}

	out := Outcome{Res: res, Shards: s.ParallelShards()}
	if rec != nil {
		apps := make([]string, cfg.Cores)
		for i := range apps {
			apps[i] = job.Mix.Assignment(i)
		}
		freqSeconds := make(map[int]float64, len(res.FreqTime))
		for f, t := range res.FreqTime {
			freqSeconds[int(f)] = t.Seconds()
		}
		out.Telemetry = rec.Export(telemetry.RunMeta{
			Mix:          job.Mix.Name,
			Policy:       job.Spec.Name,
			Gamma:        cfg.Policy.Gamma,
			Cores:        cfg.Cores,
			Channels:     cfg.Channels,
			CoreApps:     apps,
			NonMemPowerW: nonMem,
		}, freqSeconds)
	}
	return out, snap, nil
}

// RunEach executes every job on the worker pool and returns outcomes
// and errors both indexed like jobs (deterministic ordering regardless
// of completion order). One job's failure does not stop the others;
// cancellation does — jobs not yet started report ctx.Err().
func (e *Engine) RunEach(ctx context.Context, jobs []Job) ([]Outcome, []error) {
	return e.each(ctx, jobs, func(ctx context.Context, i int) (Outcome, error) {
		return e.Run(ctx, jobs[i])
	})
}

// each is the batch body behind RunEach and RunEachWarm: run(ctx, i)
// produces job i's outcome on the worker pool, and every finished job
// is reported to the OnResult callback.
func (e *Engine) each(ctx context.Context, jobs []Job, run func(context.Context, int) (Outcome, error)) ([]Outcome, []error) {
	outs := make([]Outcome, len(jobs))
	var onDone func(done, i int, err error)
	if e.onResult != nil {
		onDone = func(done, i int, err error) {
			e.onResult(Progress{
				Done: done, Total: len(jobs), Index: i,
				Job: jobs[i], Outcome: outs[i], Err: err,
			})
		}
	}
	errs := ForEach(ctx, e.workers, len(jobs), func(ctx context.Context, i int) error {
		var err error
		outs[i], err = run(ctx, i)
		return err
	}, onDone)
	return outs, errs
}

// RunAll is RunEach with the per-job errors joined into one error
// annotated with each failing job's identity; outcomes for failed jobs
// are zero values.
func (e *Engine) RunAll(ctx context.Context, jobs []Job) ([]Outcome, error) {
	outs, errs := e.RunEach(ctx, jobs)
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("job %d (%s/%s): %w",
				i, jobs[i].Mix.Name, jobs[i].Spec.Name, err))
		}
	}
	return outs, errors.Join(joined...)
}
