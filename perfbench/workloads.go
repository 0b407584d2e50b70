package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"memscale"
	"memscale/internal/config"
	"memscale/internal/dram"
	"memscale/internal/faults"
	"memscale/internal/fleet"
	"memscale/internal/invariant"
	"memscale/internal/policies"
	"memscale/internal/runner"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// Workload sizes. Each is the smallest that keeps the workload's
// defining behaviour: one OS epoch per paper-grid job (what
// `memscale-repro -epochs 1` runs) and per sharded run, and a fleet horizon
// past epoch 3, where the power cap drives MEM1 nodes through the
// slack_ledger invariant.
const (
	gridEpochs  = 1
	shardEpochs = 1

	fleetWebNodes   = 12
	fleetBatchNodes = 4
	fleetEpochs     = 6
	fleetWattsNode  = 5.0 // BenchmarkFleet's 320 W over 64 nodes
	fleetCrashRate  = 0.05
)

// passMode selects how a pass calls the program.
type passMode int

const (
	// modeReference runs the pass untimed through the public API where
	// one exists; its outputs are the reference the other passes must
	// reproduce bit for bit.
	modeReference passMode = iota
	// modeTimed is the measured, untraced pass.
	modeTimed
	// modeTraced records spans and layer counters.
	modeTraced
)

// opResult is one operation's outcome and the inputs to its checks.
type opResult struct {
	name   string
	err    error
	digest string
	checks uint64 // invariant checks the op passed
	finite bool
	// minShards > 0 requires the op to have run on at least that many
	// engine shards; shards is what it ran on.
	minShards, shards int
	// knownDefect marks a fleet node lost to the slack_ledger
	// invariant under the power cap, the defect the fleet workload
	// exists to expose.
	knownDefect bool
}

// passResult is one pass over a workload's operations.
type passResult struct {
	wall   time.Duration
	instr  float64 // simulated instructions of the managed runs
	ops    []opResult
	digest string
	fatal  error

	gov *govSet
	lay passLayers
}

// passLayers carries what a pass observed of the layers beneath it.
type passLayers struct {
	events     uint64 // managed-run events fired
	opHost     []time.Duration
	opEvents   []uint64
	residency  dram.Account
	memAvgW    []float64
	invChecks  uint64
	violations map[string]int
	attempts   int
	jobs       int
	hits, look int
	baselines  []time.Duration
	shards     []int
	telEvents  uint64
	telDropped uint64
	workers    int
	fleet      *fleet.Summary
	fleetSteps time.Duration // lockstep phase of a fleet run
}

// benchWorkload is one of the benchmark's workloads, built from a seed.
type benchWorkload interface {
	pass(ctx context.Context, mode passMode, tr *tracer) passResult
	// timedReference reports that the reference pass makes the same
	// calls as a timed pass, so it is measured as the first of them.
	timedReference() bool
	// cases are the single runs the traced probes time on their own.
	cases() []simCase
	// mixOf is the mix operation op ran (in fleet-capped, op is the
	// node group).
	mixOf(op int) (workload.Mix, bool)
}

type workloadDef struct {
	name, why string
	build     func(seed uint64, nproc int) (benchWorkload, error)
}

var workloads = []workloadDef{
	{"paper-grid", "the memscale-repro grid: ILP1/MID1/MEM1 x 7 policies on the 16-core 4-channel machine through runner.Engine.RunEach; serial engine, controller, traces, governor, worker pool and baseline cache", buildGrid},
	{"sharded-mem", "MEM1/part and MEM3/ilv2 one run at a time on nproc shards with telemetry events; the only workload where conservative windows, barriers, ctx polls and the telemetry merge work", buildSharded},
	{"fleet-capped", "BenchmarkFleet's MID1 web + MEM1 batch nodes under its per-node power cap for 6 epochs with seeded crashes and recovery; the fleet coordinator, checkpoints, replay and fault plane", buildFleet},
}

// seededMix resolves a Table 1 mix. Seed 0 keeps the canonical name, so
// results match the repository's goldens; any other seed renames the
// mix, and since trace.Seed hashes the name, every per-core stream is
// re-seeded while the applications' Table 1 profiles stay the same.
func seededMix(name string, seed uint64) (workload.Mix, error) {
	m, err := workload.ByName(name)
	if err != nil {
		return workload.Mix{}, err
	}
	if seed != 0 {
		m.Name = fmt.Sprintf("%s~s%d", m.Name, seed)
	}
	return m, nil
}

// instantiate builds a mix's per-core streams once, validating the
// generated inputs before any operation runs.
func instantiate(mix workload.Mix, cores, channels int) error {
	cfg := config.Default()
	cfg.Cores, cfg.Channels = cores, channels
	if err := cfg.Validate(); err != nil {
		return err
	}
	_, err := mix.Streams(&cfg)
	return err
}

// ---------------------------------------------------------------- paper-grid

type gridWorkload struct {
	nproc int
	mixes []workload.Mix
	jobs  []runner.Job
}

func buildGrid(seed uint64, nproc int) (benchWorkload, error) {
	w := &gridWorkload{nproc: nproc}
	cfg := config.Default()
	for _, name := range []string{"ILP1", "MID1", "MEM1"} {
		mix, err := seededMix(name, seed)
		if err != nil {
			return nil, err
		}
		if err := instantiate(mix, cfg.Cores, cfg.Channels); err != nil {
			return nil, err
		}
		w.mixes = append(w.mixes, mix)
		for _, spec := range policies.Alternatives() {
			rc := memscale.RunConfig{Mix: name, Policy: spec.Name, Epochs: gridEpochs}
			if err := rc.Validate(); err != nil {
				return nil, err
			}
			w.jobs = append(w.jobs, runner.Job{Mix: mix, Spec: spec, Epochs: gridEpochs})
		}
	}
	return w, nil
}

func (w *gridWorkload) timedReference() bool { return true }

func (w *gridWorkload) mixOf(op int) (workload.Mix, bool) {
	if op < 0 || op >= len(w.jobs) {
		return workload.Mix{}, false
	}
	return w.jobs[op].Mix, true
}

func (w *gridWorkload) cases() []simCase {
	return []simCase{{mix: w.mixes[2], cores: 16, channels: 4, epochs: gridEpochs, spec: policies.MemScale}}
}

func (w *gridWorkload) pass(ctx context.Context, mode passMode, tr *tracer) passResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := passResult{gov: &govSet{traced: mode == modeTraced}}
	cache := runner.NewBaselineCache()
	jobs := w.jobs
	var starts []time.Time
	var ends []time.Time
	opts := runner.Options{Workers: w.nproc, Cache: cache}
	start := time.Now()
	var passID, eachID int
	if mode == modeTraced {
		jobs = append([]runner.Job(nil), w.jobs...)
		starts = make([]time.Time, len(jobs))
		ends = make([]time.Time, len(jobs))
		for i := range jobs {
			i := i
			jobs[i].Spec = res.gov.wrap(jobs[i].Spec, i)
			// Engine.Run applies Mutate first thing, so it marks the
			// job's start; OnResult marks its end.
			jobs[i].Mutate = func(*config.Config) { starts[i] = time.Now() }
		}
		opts.OnResult = func(p runner.Progress) { ends[p.Index] = time.Now() }
		passID = tr.reserve()
		// The baselines are looked up through the shared cache before
		// the grid runs, so each one is timed on its own; the grid's
		// jobs then find them cached.
		bstart := make([]time.Time, len(w.mixes))
		bend := make([]time.Time, len(w.mixes))
		berrs := runner.ForEach(ctx, w.nproc, len(w.mixes), func(ctx context.Context, i int) error {
			bstart[i] = time.Now()
			_, _, err := cache.Baseline(ctx, config.Default(), w.mixes[i], gridEpochs, 0)
			bend[i] = time.Now()
			return err
		}, nil)
		if err := errors.Join(berrs...); err != nil {
			res.fatal = err
			return res
		}
		for i := range w.mixes {
			tr.add("runner.baseline", passID, -1, bstart[i], bend[i])
			res.lay.baselines = append(res.lay.baselines, bend[i].Sub(bstart[i]))
		}
		eachID = tr.reserve()
	}
	eachStart := time.Now()
	outs, errs := runner.New(opts).RunEach(ctx, jobs)
	end := time.Now()
	res.wall = end.Sub(start)
	res.lay.workers = w.nproc
	res.lay.jobs = len(jobs)
	res.lay.hits, res.lay.look = cacheStats(cache)

	all := newDigester()
	for i, out := range outs {
		op := opResult{name: w.jobs[i].Mix.Name + "/" + w.jobs[i].Spec.Name, err: errs[i]}
		if op.err == nil {
			d := newDigester()
			d.result(out.Res)
			d.result(out.Base)
			op.digest = d.sum()
			op.checks = out.Res.InvariantChecks
			avg, worst := out.CPIIncrease()
			op.finite = finite(out.MemorySavings(), out.SystemSavings(), avg, worst,
				out.Res.Memory.Memory(), out.SystemEnergy(out.Res)) && finite(out.Res.CPI...)
			for _, n := range out.Res.Instructions {
				res.instr += n
			}
			res.lay.events += out.Res.Events
			res.lay.opEvents = append(res.lay.opEvents, out.Res.Events)
			res.lay.residency = addAccount(res.lay.residency, out.Res.Residency)
			res.lay.memAvgW = append(res.lay.memAvgW, out.Res.MemAvgWatts)
			res.lay.invChecks += out.Res.InvariantChecks
			res.lay.attempts += out.Attempts
			res.lay.shards = append(res.lay.shards, out.Shards)
		}
		all.s(op.digest)
		res.ops = append(res.ops, op)
	}
	res.digest = all.sum()
	if mode == modeTraced {
		for i := range jobs {
			if !starts[i].IsZero() && !ends[i].IsZero() {
				id := tr.reserve()
				tr.addReserved(id, "runner.job", eachID, i, starts[i], ends[i])
				res.lay.opHost = append(res.lay.opHost, ends[i].Sub(starts[i]))
				addEpochSpans(tr, res.gov, i, id)
			}
		}
		tr.addReserved(eachID, "runner.RunEach", passID, -1, eachStart, end)
		tr.addReserved(passID, "pass", 0, -1, start, end)
	}
	return res
}

// cacheStats returns the cache's hits and lookups.
func cacheStats(c *runner.BaselineCache) (hits, lookups int) {
	h, m := c.Stats()
	return h, h + m
}

// addEpochSpans records the epoch spans the governor wrappers of op
// timed, as children of parent.
func addEpochSpans(tr *tracer, gs *govSet, op, parent int) {
	for _, st := range gs.all() {
		if st.op != op {
			continue
		}
		for _, e := range st.epochSpans {
			if e.end.IsZero() {
				continue
			}
			id := tr.reserve()
			if !e.decide[0].IsZero() {
				tr.add("core.decide", id, op, e.decide[0], e.decide[1])
			}
			if !e.epochEnd[0].IsZero() {
				tr.add("core.epoch_end", id, op, e.epochEnd[0], e.epochEnd[1])
			}
			tr.addReserved(id, "sim.epoch", parent, op, e.start, e.end)
		}
	}
}

func addAccount(a, b dram.Account) dram.Account {
	a.ActiveStandby += b.ActiveStandby
	a.PrechargeStandby += b.PrechargeStandby
	a.ActivePD += b.ActivePD
	a.PrechargePD += b.PrechargePD
	a.PrechargePDSlow += b.PrechargePDSlow
	a.Refreshing += b.Refreshing
	a.Activations += b.Activations
	a.Refreshes += b.Refreshes
	a.PDExits += b.PDExits
	a.ReadBurst += b.ReadBurst
	a.WriteBurst += b.WriteBurst
	a.TermBurst += b.TermBurst
	return a
}

// --------------------------------------------------------------- sharded-mem

type shardedWorkload struct {
	seed   uint64
	shards int
	jobs   []runner.Job
	// canonical are the public RunConfigs of the same runs; at seed 0
	// the reference pass calls memscale.RunContext with them.
	canonical []memscale.RunConfig
}

func buildSharded(seed uint64, nproc int) (benchWorkload, error) {
	cfg := config.Default()
	w := &shardedWorkload{seed: seed, shards: min(nproc, cfg.Channels)}
	mem1, err := seededMix("MEM1", seed)
	if err != nil {
		return nil, err
	}
	mem3, err := seededMix("MEM3", seed)
	if err != nil {
		return nil, err
	}
	for _, mix := range []workload.Mix{mem1.Partition(), mem3.Interleaved(2)} {
		if err := instantiate(mix, cfg.Cores, cfg.Channels); err != nil {
			return nil, err
		}
		w.jobs = append(w.jobs, runner.Job{
			Mix: mix, Spec: policies.MemScale, Epochs: shardEpochs, Gamma: cfg.Policy.Gamma,
			Shards: w.shards, Telemetry: &telemetry.Options{Events: true},
		})
	}
	w.canonical = []memscale.RunConfig{
		{Mix: "MEM1/part", Policy: "MemScale", Epochs: shardEpochs, Shards: w.shards, Telemetry: &memscale.TelemetryConfig{Events: true}},
		{Mix: "MEM3/ilv2", Policy: "MemScale", Epochs: shardEpochs, Shards: w.shards, Telemetry: &memscale.TelemetryConfig{Events: true}},
	}
	for _, rc := range w.canonical {
		if err := rc.Validate(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// timedReference: at seed 0 the reference goes through
// memscale.RunContext, which returns no instruction counts.
func (w *shardedWorkload) timedReference() bool { return w.seed != 0 }

func (w *shardedWorkload) mixOf(op int) (workload.Mix, bool) {
	if op < 0 || op >= len(w.jobs) {
		return workload.Mix{}, false
	}
	return w.jobs[op].Mix, true
}

func (w *shardedWorkload) cases() []simCase {
	var out []simCase
	for _, j := range w.jobs {
		out = append(out, simCase{mix: j.Mix, cores: 16, channels: 4, epochs: shardEpochs, spec: j.Spec})
	}
	return out
}

// summaryDigest hashes the fields memscale.RunSummary reports, so a run
// through the runner and the same run through RunContext compare.
func summaryDigest(memJ, sysJ, memSav, sysSav, avg, worst float64, freq map[int]float64, events uint64) string {
	d := newDigester()
	d.f(memJ, sysJ, memSav, sysSav, avg, worst)
	d.freqSeconds(freq)
	d.u(events)
	return d.sum()
}

func (w *shardedWorkload) pass(ctx context.Context, mode passMode, tr *tracer) passResult {
	res := passResult{gov: &govSet{traced: mode == modeTraced}}
	start := time.Now()
	var passID int
	if mode == modeTraced {
		passID = tr.reserve()
	}
	all := newDigester()
	for i, job := range w.jobs {
		op := opResult{name: job.Mix.Name, minShards: 2}
		if mode == modeReference && w.seed == 0 {
			// Seed 0 uses the canonical names the public API resolves;
			// its digest is the reference the runner path must match.
			sum, err := w.runContext(ctx, i)
			op.err = err
			if err == nil {
				op.digest = summaryDigest(sum.MemoryEnergyJ, sum.SystemEnergyJ, sum.MemorySavings, sum.SystemSavings,
					sum.AvgCPIIncrease, sum.WorstCPIIncrease, sum.FreqSeconds, sum.Events)
				op.checks, op.shards = sum.InvariantChecks, sum.EngineShards
				op.finite = finite(sum.MemoryEnergyJ, sum.SystemEnergyJ, sum.MemorySavings, sum.SystemSavings,
					sum.AvgCPIIncrease, sum.WorstCPIIncrease)
			}
			all.s(op.digest)
			res.ops = append(res.ops, op)
			continue
		}
		if mode == modeTraced {
			job.Spec = res.gov.wrap(job.Spec, i)
		}
		// One RunContext-shaped call per op: a single-worker engine
		// with its own baseline cache, under a cancellable context.
		// RunContext itself resolves mixes by canonical name only, so a
		// seeded mix goes through the same engine call it makes.
		opCtx, cancel := context.WithCancel(ctx)
		t0 := time.Now()
		out, err := runner.New(runner.Options{Workers: 1}).Run(opCtx, job)
		t1 := time.Now()
		cancel()
		op.err = err
		if err == nil {
			freq := map[int]float64{}
			for f, t := range out.Res.FreqTime {
				freq[int(f)] = t.Seconds()
			}
			avg, worst := out.CPIIncrease()
			memJ, sysJ := out.Res.Memory.Memory(), out.SystemEnergy(out.Res)
			op.digest = summaryDigest(memJ, sysJ, out.MemorySavings(), out.SystemSavings(), avg, worst, freq, out.Res.Events)
			op.checks, op.shards = out.Res.InvariantChecks, out.Shards
			op.finite = finite(memJ, sysJ, out.MemorySavings(), out.SystemSavings(), avg, worst) && finite(out.Res.CPI...)
			for _, n := range out.Res.Instructions {
				res.instr += n
			}
			res.lay.events += out.Res.Events
			res.lay.opEvents = append(res.lay.opEvents, out.Res.Events)
			res.lay.opHost = append(res.lay.opHost, t1.Sub(t0))
			res.lay.residency = addAccount(res.lay.residency, out.Res.Residency)
			res.lay.memAvgW = append(res.lay.memAvgW, out.Res.MemAvgWatts)
			res.lay.invChecks += out.Res.InvariantChecks
			res.lay.attempts += out.Attempts
			res.lay.shards = append(res.lay.shards, out.Shards)
			res.lay.jobs++
			res.lay.look++ // each op's engine looks its own baseline up once
			if out.Telemetry != nil {
				res.lay.telEvents += uint64(len(out.Telemetry.Events))
				res.lay.telDropped += out.Telemetry.DroppedEvents
			}
		}
		if mode == modeTraced {
			id := tr.reserve()
			tr.addReserved(id, "runner.Run", passID, i, t0, t1)
			addEpochSpans(tr, res.gov, i, id)
		}
		all.s(op.digest)
		res.ops = append(res.ops, op)
	}
	end := time.Now()
	res.wall = end.Sub(start)
	res.lay.workers = 1
	res.digest = all.sum()
	if mode == modeTraced {
		tr.addReserved(passID, "pass", 0, -1, start, end)
	}
	return res
}

func (w *shardedWorkload) runContext(ctx context.Context, i int) (memscale.RunSummary, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return memscale.RunContext(ctx, w.canonical[i])
}

// -------------------------------------------------------------- fleet-capped

type fleetWorkload struct {
	public   memscale.FleetConfig
	internal fleet.Config
	mix      workload.Mix // the batch group's mix, for the probes
}

func buildFleet(seed uint64, nproc int) (benchWorkload, error) {
	crash := &memscale.FaultConfig{Seed: seed, NodeCrashRate: fleetCrashRate}
	fc := memscale.FleetConfig{
		Groups: []memscale.NodeGroup{
			{Name: "web", Nodes: fleetWebNodes, Mix: "MID1", Cores: 2, Channels: 1,
				Arrival: memscale.ArrivalConfig{Kind: memscale.ArrivalPoisson}, Faults: crash},
			{Name: "batch", Nodes: fleetBatchNodes, Mix: "MEM1", Cores: 2, Channels: 1,
				Arrival: memscale.ArrivalConfig{Kind: memscale.ArrivalBursty}, Faults: crash},
		},
		Epochs:       fleetEpochs,
		PowerBudgetW: fleetWattsNode * (fleetWebNodes + fleetBatchNodes),
		Seed:         seed,
		Workers:      nproc,
		Recovery:     &memscale.FleetRecoveryConfig{},
	}
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	// The same run through the fleet engine directly, so the governors
	// can be wrapped; the reference pass runs the public call and the
	// digests must agree.
	ic := fleet.Config{
		Epochs: fc.Epochs, BudgetW: fc.PowerBudgetW, Seed: fc.Seed, Workers: fc.Workers,
		Recovery: &fleet.RecoverySpec{},
	}
	w := &fleetWorkload{public: fc}
	for _, g := range fc.Groups {
		mix, err := workload.ByName(g.Mix)
		if err != nil {
			return nil, err
		}
		if err := instantiate(mix, g.Cores, g.Channels); err != nil {
			return nil, err
		}
		ic.Groups = append(ic.Groups, fleet.GroupSpec{
			Name: g.Name, Nodes: g.Nodes, Mix: mix, Spec: policies.MemScale,
			Cores: g.Cores, Channels: g.Channels, Arrival: g.Arrival,
			Faults: &faults.Config{Seed: seed, NodeCrashRate: fleetCrashRate},
		})
		w.mix = mix
	}
	w.internal = ic
	return w, nil
}

// timedReference: the reference is the public memscale.RunFleet, whose
// governors are not wrapped, so it has no instruction count.
func (w *fleetWorkload) timedReference() bool { return false }

func (w *fleetWorkload) mixOf(op int) (workload.Mix, bool) {
	if op < 0 || op >= len(w.internal.Groups) {
		return workload.Mix{}, false
	}
	return w.internal.Groups[op].Mix, true
}

func (w *fleetWorkload) cases() []simCase {
	return []simCase{{mix: w.mix, cores: 2, channels: 1, epochs: fleetEpochs, spec: policies.MemScale}}
}

func (w *fleetWorkload) pass(ctx context.Context, mode passMode, tr *tracer) passResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := passResult{gov: &govSet{traced: mode == modeTraced}}
	start := time.Now()
	var sum fleet.Summary
	var err error
	if mode == modeReference {
		sum, err = memscale.RunFleet(ctx, w.public)
	} else {
		ic := w.internal
		ic.Groups = append([]fleet.GroupSpec(nil), w.internal.Groups...)
		for gi := range ic.Groups {
			ic.Groups[gi].Spec = res.gov.wrap(ic.Groups[gi].Spec, gi)
		}
		sum, err = fleet.Run(ctx, ic)
	}
	end := time.Now()
	res.wall = end.Sub(start)
	res.lay.workers = w.public.Workers
	if sum.Nodes == 0 {
		res.fatal = fmt.Errorf("fleet run produced no summary: %w", err)
		return res
	}
	res.instr = res.gov.instructions()
	res.lay.violations = violations(err)
	res.lay.invChecks = sum.InvariantChecks
	res.lay.events = sum.Events
	res.lay.fleet = &sum
	var firstGov time.Time
	for _, st := range res.gov.all() {
		if firstGov.IsZero() || st.created.Before(firstGov) {
			firstGov = st.created
		}
	}
	if !firstGov.IsZero() {
		// Managed systems are built once every baseline has finished;
		// from there on the nodes step in lockstep windows.
		res.lay.fleetSteps = end.Sub(firstGov)
	}
	for _, g := range sum.Groups {
		if g.Rollup != nil {
			res.lay.residency = addAccount(res.lay.residency, g.Rollup.Residency)
		}
	}
	if sum.MemAvgPowerW > 0 {
		res.lay.memAvgW = append(res.lay.memAvgW, sum.MemAvgPowerW/float64(sum.Nodes))
	}

	nodeErrs := nodeErrors(err)
	all := newDigester()
	all.f(sum.SER, sum.AvgCPIIncrease, sum.P99CPIIncrease, sum.P999CPIIncrease, sum.MemoryEnergyJ,
		sum.SystemEnergyJ, sum.BaselineSysJ, sum.MemAvgPowerW, sum.ConstrainedFrac)
	all.u(sum.Events, uint64(sum.DeadNodes), uint64(sum.Recoveries), sum.InvariantChecks)
	for _, g := range sum.Groups {
		all.f(g.SER, g.AvgCPIIncrease, g.P99CPIIncrease)
		if g.Rollup != nil {
			all.freqSeconds(g.Rollup.FreqSeconds)
			e := g.Rollup.Energy
			all.f(e.Background, e.ActPre, e.ReadWrite, e.Termination, e.Refresh, e.PLLReg, e.MC)
		}
	}
	for _, ns := range sum.PerNode {
		d := newDigester()
		d.f(ns.MemoryEnergyJ, ns.SystemEnergyJ, ns.BaselineSysJ, ns.SER, ns.CPIIncrease, ns.MeanIntensity)
		d.u(uint64(ns.CappedEpochs), uint64(ns.FinalCapMHz), uint64(ns.Attempts), uint64(ns.Crashes),
			uint64(ns.RecoveryEpochs), uint64(ns.LossWindows))
		d.s(ns.Err)
		op := opResult{
			name:   fmt.Sprintf("%s/node%d", ns.Group, ns.Node),
			digest: d.sum(),
			checks: sum.InvariantChecks,
			finite: finite(ns.MemoryEnergyJ, ns.SystemEnergyJ, ns.BaselineSysJ, ns.SER, ns.CPIIncrease),
		}
		if ns.Dead {
			op.err = nodeErrs[ns.Node]
			if op.err == nil {
				op.err = errors.New(ns.Err)
			}
			var v *invariant.Violation
			op.knownDefect = errors.As(op.err, &v) && v.Name == "slack_ledger"
		}
		all.s(op.digest)
		res.ops = append(res.ops, op)
	}
	res.digest = all.sum()
	if mode == modeTraced {
		passID := tr.reserve()
		for gi := range w.internal.Groups {
			addEpochSpans(tr, res.gov, gi, passID)
		}
		tr.addReserved(passID, "fleet.Run", 0, -1, start, end)
	}
	return res
}

// nodeErrors maps each failed node to its error. fleet.Run joins one
// "node N: ..." error per failed node.
func nodeErrors(err error) map[int]error {
	out := map[int]error{}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return out
	}
	for _, e := range joined.Unwrap() {
		var n int
		if _, scanErr := fmt.Sscanf(e.Error(), "node %d:", &n); scanErr == nil {
			out[n] = e
		}
	}
	return out
}

// violations counts the invariant violations in err by invariant name.
func violations(err error) map[string]int {
	out := map[string]int{}
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if j, ok := e.(interface{ Unwrap() []error }); ok {
			for _, c := range j.Unwrap() {
				walk(c)
			}
			return
		}
		var v *invariant.Violation
		if errors.As(e, &v) {
			out[v.Name]++
		}
	}
	walk(err)
	return out
}
