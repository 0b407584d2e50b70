package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"memscale/internal/checkpoint"
	"memscale/internal/config"
	"memscale/internal/event"
	"memscale/internal/fleet"
	"memscale/internal/memctrl"
	"memscale/internal/policies"
	"memscale/internal/power"
	"memscale/internal/runner"
	"memscale/internal/sim"
	"memscale/internal/telemetry"
	"memscale/internal/trace"
	"memscale/internal/workload"
)

// simCase is one managed run the probes drive through the sim layer's
// public calls directly.
type simCase struct {
	mix             workload.Mix
	cores, channels int
	epochs          int
	spec            policies.Spec
}

func (c simCase) config() config.Config {
	cfg := config.Default()
	cfg.Cores, cfg.Channels = c.cores, c.channels
	if c.spec.Configure != nil {
		c.spec.Configure(&cfg)
	}
	return cfg
}

// simRun is one timed probe run.
type simRun struct {
	host  time.Duration
	sys   *sim.System
	res   sim.Result
	drain time.Duration // cancel-to-return latency of a cancelled run
}

// probeEnv holds what the probes share: the case's calibrated
// rest-of-system power and the baselines timed to obtain it.
type probeEnv struct {
	nproc     int
	nonMem    []float64
	baselines []time.Duration
}

func (p *probeEnv) calibrate(ctx context.Context, cases []simCase) error {
	for _, c := range cases {
		cfg := config.Default()
		cfg.Cores, cfg.Channels = c.cores, c.channels
		t0 := time.Now()
		_, nonMem, err := runner.NewBaselineCache().Baseline(ctx, cfg, c.mix, c.epochs, 0)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", c.mix.Name, err)
		}
		p.baselines = append(p.baselines, time.Since(t0))
		p.nonMem = append(p.nonMem, nonMem)
	}
	return nil
}

// run executes case i on the sim layer. cancellable selects a
// cancellable context (what the runner and CLIs pass) over
// context.Background(); cancelAfter > 0 cancels the run after that
// much host time and records how long it took to return.
func (p *probeEnv) run(ctx context.Context, c simCase, i, shards int, cancellable, tel bool, cancelAfter time.Duration) (simRun, error) {
	cfg := c.config()
	streams, err := c.mix.Streams(&cfg)
	if err != nil {
		return simRun{}, err
	}
	opts := sim.Options{NonMemPower: p.nonMem[i], Shards: shards}
	if c.spec.Governor != nil {
		opts.Governor = c.spec.Governor(&cfg, p.nonMem[i])
	}
	if tel {
		opts.Telemetry = telemetry.NewRecorder(telemetry.Options{Events: true})
	}
	s, err := sim.New(cfg, streams, opts)
	if err != nil {
		return simRun{}, err
	}
	runCtx := context.Background()
	var cancel context.CancelFunc = func() {}
	if cancellable {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	var cancelledAt time.Time
	if cancelAfter > 0 {
		timer := time.AfterFunc(cancelAfter, func() {
			cancelledAt = time.Now()
			cancel()
		})
		defer timer.Stop()
	}
	t0 := time.Now()
	res, err := s.RunForContext(runCtx, config.Time(c.epochs)*cfg.Policy.EpochLength)
	t1 := time.Now()
	out := simRun{host: t1.Sub(t0), sys: s, res: res}
	if cancelAfter > 0 {
		if err == nil {
			return simRun{}, errFinishedEarly
		}
		out.drain = t1.Sub(cancelledAt)
		return out, nil
	}
	return out, err
}

// errFinishedEarly reports a run that completed before the probe
// cancelled it.
var errFinishedEarly = errors.New("run finished before its cancellation")

// simProbes is what the sim-layer probes measured.
type simProbes struct {
	serial, sharded, background, telemetry []time.Duration
	drainSerial, drainSharded              []time.Duration
	stallFrac                              float64
	shards                                 int
}

// probeSim times every case at 1 shard and at nproc shards through a
// cancellable context, at nproc shards through context.Background(),
// and with a telemetry recorder, alternating the order across reps;
// then cancels one serial and one sharded run halfway.
func (p *probeEnv) probeSim(ctx context.Context, cases []simCase, reps int) (simProbes, error) {
	var out simProbes
	var stall, busy float64
	shardsFor := func(c simCase) int { return max(min(p.nproc, c.channels), 1) }
	for rep := 0; rep < reps; rep++ {
		for i, c := range cases {
			variants := []func() error{
				func() error {
					r, err := p.run(ctx, c, i, 1, true, false, 0)
					out.serial = append(out.serial, r.host)
					if err == nil && rep == 0 {
						for _, core := range r.sys.Cores {
							stall += core.StallTime().Seconds()
						}
						busy += float64(len(r.sys.Cores)) * r.res.Duration.Seconds()
					}
					return err
				},
				func() error {
					r, err := p.run(ctx, c, i, shardsFor(c), true, false, 0)
					out.sharded = append(out.sharded, r.host)
					if err == nil {
						out.shards = max(out.shards, r.sys.ParallelShards())
					}
					return err
				},
				func() error {
					r, err := p.run(ctx, c, i, shardsFor(c), false, false, 0)
					out.background = append(out.background, r.host)
					return err
				},
				func() error {
					r, err := p.run(ctx, c, i, shardsFor(c), true, true, 0)
					out.telemetry = append(out.telemetry, r.host)
					return err
				},
			}
			for k := range variants {
				if err := variants[(k+rep)%len(variants)](); err != nil {
					return out, err
				}
			}
		}
	}
	if busy > 0 {
		out.stallFrac = stall / busy
	}
	// Cancel one serial and one sharded run of the first case halfway
	// through its measured duration.
	// A run that beats its cancellation is retried with half the delay.
	c := cases[0]
	drain := func(shards int, after time.Duration) (time.Duration, error) {
		for try := 0; try < 4; try, after = try+1, after/2 {
			r, err := p.run(ctx, c, 0, shards, true, false, after)
			if !errors.Is(err, errFinishedEarly) {
				return r.drain, err
			}
		}
		return 0, fmt.Errorf("%s: %w", c.mix.Name, errFinishedEarly)
	}
	d, err := drain(1, median(out.serial)/2)
	if err != nil {
		return out, err
	}
	out.drainSerial = append(out.drainSerial, d)
	if d, err = drain(shardsFor(c), median(out.sharded)/2); err != nil {
		return out, err
	}
	out.drainSharded = append(out.drainSharded, d)
	return out, nil
}

// pendingSetSize is the event queue's pending-set size on the full
// 16-core, 4-channel machine running MEM1, sampled at an epoch edge.
func pendingSetSize(ctx context.Context) (int, error) {
	cfg := config.Default()
	mix, err := workload.ByName("MEM1")
	if err != nil {
		return 0, err
	}
	streams, err := mix.Streams(&cfg)
	if err != nil {
		return 0, err
	}
	s, err := sim.New(cfg, streams, sim.Options{})
	if err != nil {
		return 0, err
	}
	if _, err := s.RunForContext(ctx, cfg.Policy.EpochLength); err != nil {
		return 0, err
	}
	return s.Q.Len(), nil
}

// probeQueue times ScheduleBound+Step pairs on an isolated queue that
// holds a pending set of the given size: every fired event schedules
// its successor a pseudo-random delay ahead.
func probeQueue(pending int, steps int, seed uint64) float64 {
	q := &event.Queue{}
	rng := trace.NewRNG(seed)
	var handler event.Bound
	handler = func(now config.Time, _ any, _, _ int32) {
		q.ScheduleBound(now+config.Time(1+rng.Intn(100_000)), handler, nil, 0, 0)
	}
	for i := 0; i < pending; i++ {
		q.ScheduleBound(config.Time(1+rng.Intn(100_000)), handler, nil, 0, 0)
	}
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		q.Step()
	}
	return nsPer(time.Since(t0), steps)
}

// probeController feeds an isolated memory controller the case's
// streams in a closed loop — each core issues its next read (and any
// writeback) one compute gap after its previous read returns — and
// returns the host time per enqueued request. The accesses are drawn
// before the clock starts, so trace generation is not counted.
func probeController(c simCase, requests int) (float64, error) {
	cfg := config.Default()
	cfg.Cores, cfg.Channels = c.cores, c.channels
	streams, err := c.mix.Streams(&cfg)
	if err != nil {
		return 0, err
	}
	per := requests/cfg.Cores + 1
	accs := make([][]trace.Access, cfg.Cores)
	for i, st := range streams {
		accs[i] = make([]trace.Access, per)
		for k := range accs[i] {
			accs[i][k] = st.Next()
		}
	}
	q := &event.Queue{}
	mc := memctrl.New(&cfg, q)
	mc.Start()
	// As in the epoch loop: nothing samples the controller mid-run, so
	// it may take its coalesced completion paths.
	mc.SetQuiesceHorizon(config.Second)
	// Handlers are bound once per core, as the core model binds its own,
	// so the probe adds no per-request allocation.
	period := float64(cfg.CPUFreqMHz.Period())
	next := make([]int, cfg.Cores)
	done := make([]func(config.Time), cfg.Cores)
	enqueued := 0
	onIssue := func(t config.Time, _ any, core, _ int32) {
		acc := accs[core][next[core]-1]
		if acc.Writeback {
			mc.Enqueue(t, acc.WBLine, true, int(core), nil)
			enqueued++
		}
		mc.Enqueue(t, acc.Line, false, int(core), done[core])
		enqueued++
	}
	issue := func(core int, now config.Time) {
		if next[core] >= per {
			return
		}
		acc := accs[core][next[core]]
		next[core]++
		q.ScheduleBound(now+config.Time(float64(acc.Gap)*acc.BaseCPI*period+0.5), onIssue, nil, int32(core), 0)
	}
	for core := range accs {
		core := core
		done[core] = func(at config.Time) { issue(core, at) }
		issue(core, 0)
	}
	t0 := time.Now()
	for q.Len() > 0 && enqueued < requests {
		q.Step()
	}
	host := time.Since(t0)
	if enqueued == 0 {
		return 0, fmt.Errorf("controller probe enqueued nothing")
	}
	return nsPer(host, enqueued), nil
}

// probeStreams replays Stream.Next on fresh streams of each mix for as
// many accesses as the observed runs consumed per core, and returns the
// host time per access.
func probeStreams(mixes []workload.Mix, cores, channels int, perCore [][]uint64) (float64, uint64, error) {
	var total time.Duration
	var n uint64
	for i, mix := range mixes {
		cfg := config.Default()
		cfg.Cores, cfg.Channels = cores, channels
		streams, err := mix.Streams(&cfg)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for core, st := range streams {
			if core >= len(perCore[i]) {
				break
			}
			for k := uint64(0); k < perCore[i][core]; k++ {
				st.Next()
			}
			n += perCore[i][core]
		}
		total += time.Since(t0)
	}
	if n == 0 {
		return 0, 0, nil
	}
	return nsPer(total, int(n)), n, nil
}

// probeStreamBuild times Mix.Streams for each mix.
func probeStreamBuild(mixes []workload.Mix, cores, channels, reps int) ([]time.Duration, error) {
	var out []time.Duration
	for r := 0; r < reps; r++ {
		for _, mix := range mixes {
			cfg := config.Default()
			cfg.Cores, cfg.Channels = cores, channels
			t0 := time.Now()
			if _, err := mix.Streams(&cfg); err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0))
		}
	}
	return out, nil
}

// probeMeter times power.Meter.Record on an interval a run produced.
func probeMeter(cfg config.Config, iv power.Interval, n int) float64 {
	m := power.NewMeter(power.NewModel(&cfg))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m.Record(iv)
	}
	return nsPer(time.Since(t0), n)
}

// nsPer is d in nanoseconds per one of n operations.
func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// checkpointProbe is what the checkpoint probe measured.
type checkpointProbe struct {
	save, restore []time.Duration
	bytes         int
}

// probeCheckpoint saves and restores a fleet-node-shaped managed system
// (2 cores, 1 channel, MemScale) two epochs in: System.Save plus
// checkpoint.Encode, then checkpoint.Decode plus sim.Restore.
func probeCheckpoint(ctx context.Context, mix workload.Mix, nonMem float64, reps int) (checkpointProbe, error) {
	var out checkpointProbe
	cfg := config.Default()
	cfg.Cores, cfg.Channels = 2, 1
	build := func(st *sim.SystemState) (*sim.System, error) {
		streams, err := mix.Streams(&cfg)
		if err != nil {
			return nil, err
		}
		opts := sim.Options{Governor: policies.MemScale.Governor(&cfg, nonMem), NonMemPower: nonMem}
		if st == nil {
			return sim.New(cfg, streams, opts)
		}
		return sim.Restore(cfg, streams, opts, st)
	}
	s, err := build(nil)
	if err != nil {
		return out, err
	}
	for e := 0; e < 2; e++ {
		if _, err := s.StepEpoch(ctx); err != nil {
			return out, err
		}
	}
	var data []byte
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		st, err := s.Save()
		if err != nil {
			return out, err
		}
		var buf bytes.Buffer
		ck := &checkpoint.Checkpoint{
			Meta:   checkpoint.Meta{Mix: mix.Name, Policy: policies.MemScale.Name, NonMem: nonMem, Epochs: 2},
			Config: cfg, Base: cfg, State: st,
		}
		if err := checkpoint.Encode(&buf, ck); err != nil {
			return out, err
		}
		out.save = append(out.save, time.Since(t0))
		data = buf.Bytes()
	}
	out.bytes = len(data)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		ck, err := checkpoint.Decode(bytes.NewReader(data))
		if err != nil {
			return out, err
		}
		if _, err := build(ck.State); err != nil {
			return out, err
		}
		out.restore = append(out.restore, time.Since(t0))
	}
	return out, nil
}

// probeFleetWindow runs a small uncapped fleet of node-shaped systems
// on the case's mix, for workloads that do not run the fleet
// themselves, and returns the host time per lockstep window.
func probeFleetWindow(ctx context.Context, mix workload.Mix, nproc int) (time.Duration, error) {
	const nodes, epochs = 2, 2
	c := fleet.Config{
		Groups: []fleet.GroupSpec{{Name: "probe", Nodes: nodes, Mix: mix, Spec: policies.MemScale, Cores: 2, Channels: 1}},
		Epochs: epochs, Workers: nproc,
	}
	gs := &govSet{}
	c.Groups[0].Spec = gs.wrap(c.Groups[0].Spec, 0)
	if _, err := fleet.Run(ctx, c); err != nil {
		return 0, err
	}
	end := time.Now()
	var first time.Time
	for _, st := range gs.all() {
		if first.IsZero() || st.created.Before(first) {
			first = st.created
		}
	}
	return end.Sub(first) / epochs, nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
