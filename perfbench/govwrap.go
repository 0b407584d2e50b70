package main

import (
	"sync"
	"time"

	"memscale/internal/config"
	"memscale/internal/faults"
	"memscale/internal/memctrl"
	"memscale/internal/policies"
	"memscale/internal/power"
	"memscale/internal/sim"
)

// The simulator probes its governor for optional methods; a wrapper
// that added or hid one would change fault handling, checkpoint
// restore, shard eligibility, slack-ledger invariants or telemetry.
// These are every optional interface the simulator asserts on.
type (
	predictor interface {
		PredictedMeanCPI(config.FreqMHz) float64
	}
	slacker    interface{ Slack() []config.Time }
	minSlacker interface{ MinSlack() config.Time }
)

// govShape is the set of optional governor interfaces a value
// implements, one bit each.
func govShape(g sim.Governor) int {
	shape := 0
	if _, ok := g.(sim.DegradableGovernor); ok {
		shape |= 1
	}
	if _, ok := g.(sim.StatefulGovernor); ok {
		shape |= 2
	}
	if _, ok := g.(sim.PerChannelGovernor); ok {
		shape |= 4
	}
	if _, ok := g.(predictor); ok {
		shape |= 8
	}
	if _, ok := g.(slacker); ok {
		shape |= 16
	}
	if _, ok := g.(minSlacker); ok {
		shape |= 32
	}
	return shape
}

// govStats is one governor instance's accumulator. An instance is
// driven by one simulation at a time, so it needs no lock; govSet
// merges the instances after the run.
type govStats struct {
	op      int
	created time.Time
	last    time.Time // last epoch boundary (creation for epoch 0)

	instr    float64
	epochs   int
	degraded int

	decide, epochEnd       []time.Duration
	epochHost, profileHost []time.Duration
	epochSpans             []spanInterval
	freqChanges            int
	predErr                []float64

	ctr          memctrl.Counters
	lastInterval power.Interval
	haveInterval bool
}

type spanInterval struct {
	start, end time.Time
	decide     [2]time.Time
	epochEnd   [2]time.Time
}

// govSet collects the wrappers built for one pass.
type govSet struct {
	traced bool

	mu        sync.Mutex
	stats     []*govStats
	unwrapped int // governors whose shape no wrapper reproduces
}

// wrap returns spec with its Governor constructor wrapped so every
// governor it builds reports into s under the given op id. A nil
// constructor stays nil: wrapping it would turn an unmanaged scheme
// into a governed one.
func (s *govSet) wrap(spec policies.Spec, op int) policies.Spec {
	inner := spec.Governor
	if inner == nil {
		return spec
	}
	spec.Governor = func(cfg *config.Config, nonMem float64) sim.Governor {
		g := inner(cfg, nonMem)
		now := time.Now()
		st := &govStats{op: op, created: now, last: now}
		base := &govBase{inner: g, st: st, traced: s.traced, cycles: cfg.TimeToCPUCycles}
		var w sim.Governor
		switch govShape(g) {
		case 0:
			w = govPlain{base}
		case 1 | 2 | 8 | 16 | 32:
			w = govPolicy{base}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if w == nil || govShape(w) != govShape(g) {
			s.unwrapped++
			return g
		}
		s.stats = append(s.stats, st)
		return w
	}
	return spec
}

// all returns the instances registered so far.
func (s *govSet) all() []*govStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*govStats(nil), s.stats...)
}

// instructions sums the simulated instructions every instance saw
// retire (epochs replayed after a fleet-node restart included).
func (s *govSet) instructions() float64 {
	var sum float64
	for _, st := range s.all() {
		sum += st.instr
	}
	return sum
}

// govBase forwards the core Governor methods and records what passes
// through them.
type govBase struct {
	inner  sim.Governor
	st     *govStats
	traced bool
	cycles func(config.Time) float64
}

func (g *govBase) Name() string { return g.inner.Name() }

func (g *govBase) ProfileComplete(p sim.Profile) config.FreqMHz {
	if !g.traced {
		return g.inner.ProfileComplete(p)
	}
	t0 := time.Now()
	f := g.inner.ProfileComplete(p)
	t1 := time.Now()
	st := g.st
	st.profileHost = append(st.profileHost, t0.Sub(st.last))
	st.decide = append(st.decide, t1.Sub(t0))
	st.epochSpans = append(st.epochSpans, spanInterval{start: st.last, decide: [2]time.Time{t0, t1}})
	if f != p.BusFreq {
		st.freqChanges++
	}
	return f
}

func (g *govBase) EpochEnd(p sim.Profile) {
	g.observe(p)
	if !g.traced {
		g.inner.EpochEnd(p)
		return
	}
	t0 := time.Now()
	g.inner.EpochEnd(p)
	g.closeEpoch(t0)
}

// observe accounts the whole-epoch profile the simulator hands the
// governor at the epoch's end.
func (g *govBase) observe(p sim.Profile) {
	st := g.st
	st.epochs++
	for _, n := range p.Instr {
		st.instr += n
	}
	if !g.traced {
		return
	}
	if pr, ok := g.inner.(predictor); ok {
		// The model still holds the fit it chose the frequency with:
		// EpochEnd, which refits, has not run yet.
		pred := pr.PredictedMeanCPI(p.BusFreq)
		if real := g.meanCPI(p); pred > 0 && real > 0 {
			d := pred/real - 1
			if d < 0 {
				d = -d
			}
			st.predErr = append(st.predErr, d)
		}
	}
	st.ctr = addCounters(st.ctr, p.Counters)
	st.lastInterval = p.Interval
	st.haveInterval = true
}

func (g *govBase) closeEpoch(t0 time.Time) {
	t1 := time.Now()
	st := g.st
	st.epochEnd = append(st.epochEnd, t1.Sub(t0))
	st.epochHost = append(st.epochHost, t1.Sub(st.last))
	if n := len(st.epochSpans); n > 0 && st.epochSpans[n-1].end.IsZero() {
		st.epochSpans[n-1].end = t1
		st.epochSpans[n-1].epochEnd = [2]time.Time{t0, t1}
	} else {
		st.epochSpans = append(st.epochSpans, spanInterval{start: st.last, end: t1, epochEnd: [2]time.Time{t0, t1}})
	}
	st.last = t1
}

// meanCPI is the realised per-core CPI over the profile, averaged over
// the cores that retired instructions.
func (g *govBase) meanCPI(p sim.Profile) float64 {
	cycles := g.cycles(p.Elapsed())
	var sum float64
	var n int
	for _, instr := range p.Instr {
		if instr > 0 {
			sum += cycles / instr
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// govPlain wraps a governor with no optional interfaces (Static).
type govPlain struct{ *govBase }

// govPolicy wraps a governor with the full uniform MemScale shape:
// degradable, stateful, predicting, slack-reporting.
type govPolicy struct{ *govBase }

func (g govPolicy) EpochDegraded(p sim.Profile, mask faults.Kind) {
	g.observe(p)
	g.st.degraded++
	if !g.traced {
		g.inner.(sim.DegradableGovernor).EpochDegraded(p, mask)
		return
	}
	t0 := time.Now()
	g.inner.(sim.DegradableGovernor).EpochDegraded(p, mask)
	g.closeEpoch(t0)
}

func (g govPolicy) SaveGovernorState() (any, error) {
	return g.inner.(sim.StatefulGovernor).SaveGovernorState()
}

func (g govPolicy) LoadGovernorState(data []byte) error {
	return g.inner.(sim.StatefulGovernor).LoadGovernorState(data)
}

func (g govPolicy) PredictedMeanCPI(f config.FreqMHz) float64 {
	return g.inner.(predictor).PredictedMeanCPI(f)
}

func (g govPolicy) Slack() []config.Time { return g.inner.(slacker).Slack() }

func (g govPolicy) MinSlack() config.Time { return g.inner.(minSlacker).MinSlack() }

// addCounters sums the aggregate counter fields the benchmark reports.
func addCounters(a, b memctrl.Counters) memctrl.Counters {
	a.BTO += b.BTO
	a.BTC += b.BTC
	a.CTO += b.CTO
	a.CTC += b.CTC
	a.RBHC += b.RBHC
	a.OBMC += b.OBMC
	a.CBMC += b.CBMC
	a.EPDC += b.EPDC
	a.POCC += b.POCC
	a.Reads += b.Reads
	a.Writebacks += b.Writebacks
	for len(a.TLM) < len(b.TLM) {
		a.TLM = append(a.TLM, 0)
	}
	for i, n := range b.TLM {
		a.TLM[i] += n
	}
	return a
}
