package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"memscale/internal/memctrl"
	"memscale/internal/power"
	"memscale/internal/workload"
)

// Probe sizes: enough repetitions for a median, small enough that a
// traced run stays well inside its time limit.
const (
	probeReps       = 3
	queueSteps      = 2_000_000
	controllerReqs  = 200_000
	meterRecords    = 200_000
	checkpointReps  = 5
	streamBuildReps = 5
)

// layerMetrics derives the per-layer metrics from the traced passes
// (spans and counters recorded around calls into each layer), the
// untraced passes interleaved with them, and probes that time single
// layers on their own.
func (b *bench) layerMetrics(ctx context.Context, traced, untraced []passResult, tr *tracer) (map[string]metric, map[string]any, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string, n int) { m[name] = metric{Value: v, Unit: unit, Samples: n} }
	last := traced[len(traced)-1]
	lay := last.lay
	stats := last.gov.all()

	// bench: tracing overhead, traced vs untraced pass wall time.
	var tw, uw []time.Duration
	for _, p := range traced {
		tw = append(tw, p.wall)
	}
	for _, p := range untraced {
		uw = append(uw, p.wall)
	}
	overhead := 0.0
	if len(uw) > 0 {
		overhead = median(tw).Seconds()/median(uw).Seconds() - 1
	}
	put("bench.trace_overhead_frac", overhead, "ratio", len(tw)+len(uw))

	// core and sim: the governor wrappers' timings.
	var decide, epochEnd, epochHost, profileHost []time.Duration
	var predErr []float64
	var freqChanges int
	var ctr memctrl.Counters
	var iv power.Interval
	haveIV := false
	for _, st := range stats {
		decide = append(decide, st.decide...)
		epochEnd = append(epochEnd, st.epochEnd...)
		epochHost = append(epochHost, st.epochHost...)
		profileHost = append(profileHost, st.profileHost...)
		predErr = append(predErr, st.predErr...)
		freqChanges += st.freqChanges
		ctr = addCounters(ctr, st.ctr)
		if st.haveInterval {
			iv, haveIV = st.lastInterval, true
		}
	}
	put("core.decide_us", float64(median(decide).Nanoseconds())/1e3, "us", len(decide))
	put("core.epoch_end_us", float64(median(epochEnd).Nanoseconds())/1e3, "us", len(epochEnd))
	put("core.freq_changes", float64(freqChanges), "count", len(decide))
	put("core.cpi_pred_err", mean(predErr), "ratio", len(predErr))
	put("sim.epoch_host_ms", ms(median(epochHost)), "ms", len(epochHost))
	put("sim.profile_host_ms", ms(median(profileHost)), "ms", len(profileHost))

	// memctrl: each governed epoch's Profile.Counters.
	put("memctrl.reads", float64(ctr.Reads), "count", len(stats))
	put("memctrl.writebacks", float64(ctr.Writebacks), "count", len(stats))
	put("memctrl.row_hit_ratio", ratio(ctr.RBHC, ctr.RBHC+ctr.OBMC+ctr.CBMC), "ratio", len(stats))
	put("memctrl.bank_queue_depth", ratio(ctr.BTO, ctr.BTC), "req", len(stats))
	put("memctrl.bus_queue_depth", ratio(ctr.CTO, ctr.CTC), "req", len(stats))
	put("memctrl.pd_exits", float64(ctr.EPDC), "count", len(stats))

	// event: counts from the ops, host time per fired event.
	var nsPerFired []float64
	switch {
	case lay.fleet != nil:
		if lay.events > 0 {
			nsPerFired = append(nsPerFired, float64(last.wall.Nanoseconds())*float64(lay.workers)/float64(lay.events))
		}
	case len(lay.opHost) == len(lay.opEvents):
		for i, h := range lay.opHost {
			if lay.opEvents[i] > 0 {
				nsPerFired = append(nsPerFired, float64(managedHost(h, stats, i).Nanoseconds())/float64(lay.opEvents[i]))
			}
		}
	}
	put("event.fired", float64(lay.events), "count", len(traced))
	put("event.ns_per_fired", medianF(nsPerFired), "ns", len(nsPerFired))

	// dram, power: simulated statistics of the ops.
	res := lay.residency
	total := float64(res.ActiveStandby + res.PrechargeStandby + res.ActivePD + res.PrechargePD + res.PrechargePDSlow + res.Refreshing)
	pd := float64(res.ActivePD + res.PrechargePD + res.PrechargePDSlow)
	put("dram.powerdown_frac", safeDiv(pd, total), "ratio", 1)
	put("dram.refresh_frac", safeDiv(float64(res.Refreshing), total), "ratio", 1)
	put("power.mem_avg_w", mean(lay.memAvgW), "W", len(lay.memAvgW))

	// runner.
	busy := 0.0
	if lay.workers > 0 && last.wall > 0 && lay.fleet == nil {
		var sum time.Duration
		for _, h := range lay.opHost {
			sum += h
		}
		busy = sum.Seconds() / (float64(lay.workers) * last.wall.Seconds())
	}
	put("runner.jobs", float64(lay.jobs), "count", 1)
	put("runner.cache_hits", float64(lay.hits), "count", 1)
	put("runner.cache_lookups", float64(lay.look), "count", 1)
	put("runner.cache_hit_ratio", safeDiv(float64(lay.hits), float64(lay.look)), "ratio", lay.look)
	put("runner.worker_busy_frac", busy, "ratio", len(lay.opHost))
	put("runner.attempts", float64(lay.attempts), "count", 1)

	// telemetry, invariant, fleet, faults: counts from the last traced pass.
	put("telemetry.events", float64(lay.telEvents), "count", 1)
	put("telemetry.dropped", float64(lay.telDropped), "count", 1)
	put("invariant.checks", float64(lay.invChecks), "count", 1)
	nviol := 0
	for _, n := range lay.violations {
		nviol += n
	}
	put("invariant.violations", float64(nviol), "count", 1)
	put("invariant.violations.slack_ledger", float64(lay.violations["slack_ledger"]), "count", 1)
	var dead, recov, recovEpochs, crashes int
	var constrained float64
	if f := lay.fleet; f != nil {
		dead, recov, constrained = f.DeadNodes, f.Recoveries, f.ConstrainedFrac
		for _, ns := range f.PerNode {
			recovEpochs += ns.RecoveryEpochs
			crashes += ns.Crashes
		}
	}
	put("fleet.dead_nodes", float64(dead), "count", 1)
	put("fleet.recoveries", float64(recov), "count", 1)
	put("fleet.recovery_epochs", float64(recovEpochs), "count", 1)
	put("fleet.constrained_frac", constrained, "ratio", 1)
	put("faults.injected", float64(crashes), "count", 1)

	// Probes: single layers timed on their own.
	env := &probeEnv{nproc: b.nproc}
	cases := b.w.cases()
	if err := env.calibrate(ctx, cases); err != nil {
		return nil, nil, err
	}
	sp, err := env.probeSim(ctx, cases, probeReps)
	if err != nil {
		return nil, nil, fmt.Errorf("sim probe: %w", err)
	}
	put("sim.shards", float64(max(maxInt(lay.shards), sp.shards)), "count", len(lay.shards))
	put("sim.shard_speedup_x", sum(sp.serial).Seconds()/sum(sp.sharded).Seconds(), "x", len(sp.serial))
	put("sim.ctx_poll_cost_frac", sum(sp.sharded).Seconds()/sum(sp.background).Seconds()-1, "ratio", len(sp.background))
	drain := max(median(sp.drainSerial), median(sp.drainSharded))
	put("sim.cancel_drain_ms", ms(drain), "ms", len(sp.drainSerial)+len(sp.drainSharded))
	put("telemetry.overhead_frac", sum(sp.telemetry).Seconds()/sum(sp.sharded).Seconds()-1, "ratio", len(sp.telemetry))
	put("cpu.mem_stall_frac", sp.stallFrac, "ratio", len(cases))
	baselines := append(append([]time.Duration(nil), lay.baselines...), env.baselines...)
	put("runner.baseline_s", median(baselines).Seconds(), "s", len(baselines))

	pending, err := pendingSetSize(ctx)
	if err != nil {
		return nil, nil, err
	}
	put("event.pending_set", float64(pending), "count", 1)
	put("event.step_ns", probeQueue(pending, queueSteps, b.seed+1), "ns", queueSteps)

	enq, err := probeController(cases[0], controllerReqs)
	if err != nil {
		return nil, nil, err
	}
	put("memctrl.enqueue_ns", enq, "ns", controllerReqs)

	if haveIV {
		cfg := cases[0].config()
		put("power.meter_record_ns", probeMeter(cfg, iv, meterRecords), "ns", meterRecords)
	} else {
		return nil, nil, fmt.Errorf("no governed epoch produced a power interval")
	}

	// trace, workload: replay each governed op's consumed accesses.
	mixes, perCore, opIdx := b.replayPlan(stats)
	c0 := cases[0]
	nextNs, accesses, err := probeStreams(mixes, c0.cores, c0.channels, perCore)
	if err != nil {
		return nil, nil, err
	}
	put("trace.next_ns", nextNs, "ns", int(accesses))
	put("trace.accesses", float64(ctrTLM(ctr)), "count", len(stats))
	var govHost time.Duration
	for _, i := range opIdx {
		govHost += stats[i].last.Sub(stats[i].created)
	}
	put("trace.host_share", safeDiv(nextNs*float64(accesses), float64(govHost.Nanoseconds())), "ratio", len(opIdx))
	var opMixes []workload.Mix
	for _, c := range cases {
		opMixes = append(opMixes, c.mix)
	}
	sb, err := probeStreamBuild(opMixes, c0.cores, c0.channels, streamBuildReps)
	if err != nil {
		return nil, nil, err
	}
	put("workload.streams_ms", ms(median(sb)), "ms", len(sb))

	// checkpoint: a fleet-node-shaped system.
	ck, err := probeCheckpoint(ctx, cases[0].mix, env.nonMem[0], checkpointReps)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint probe: %w", err)
	}
	put("checkpoint.save_ms", ms(median(ck.save)), "ms", len(ck.save))
	put("checkpoint.restore_ms", ms(median(ck.restore)), "ms", len(ck.restore))
	put("checkpoint.bytes", float64(ck.bytes), "bytes", 1)

	// fleet: host time per lockstep window.
	if lay.fleet != nil {
		var steps []time.Duration
		for _, p := range traced {
			steps = append(steps, p.lay.fleetSteps)
		}
		put("fleet.node_window_ms", ms(median(steps))/float64(fleetEpochs), "ms", len(steps))
	} else {
		win, err := probeFleetWindow(ctx, cases[0].mix, b.nproc)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet probe: %w", err)
		}
		put("fleet.node_window_ms", ms(win), "ms", 1)
	}

	extra := map[string]any{
		"cancel_drain_ms": map[string]float64{"serial": ms(median(sp.drainSerial)), "sharded": ms(median(sp.drainSharded))},
		"self_time_ms":    selfTable(tr),
		"note": "sim.shard_speedup_x, sim.ctx_poll_cost_frac, sim.cancel_drain_ms, telemetry.overhead_frac and cpu.mem_stall_frac come from the workload's " +
			"probe cases run on the sim layer directly; sim.epoch_host_ms and sim.profile_host_ms in fleet-capped include the lockstep barrier wait; " +
			"fleet.node_window_ms outside fleet-capped comes from a 2-node probe fleet; " +
			"event.fired counts managed-run events, except in fleet-capped where it is FleetSummary.Events (managed runs and baselines)",
	}
	return m, extra, nil
}

// replayPlan lists, for every governed op of the pass, the mix it ran
// and the reads each core consumed from its stream.
func (b *bench) replayPlan(stats []*govStats) ([]workload.Mix, [][]uint64, []int) {
	var mixes []workload.Mix
	var perCore [][]uint64
	var idx []int
	for i, st := range stats {
		mix, ok := b.w.mixOf(st.op)
		if !ok || len(st.ctr.TLM) == 0 {
			continue
		}
		mixes = append(mixes, mix)
		perCore = append(perCore, append([]uint64(nil), st.ctr.TLM...))
		idx = append(idx, i)
	}
	return mixes, perCore, idx
}

// managedHost is the host time of op's managed run: the governor
// wrapper's lifetime when the op was governed, else the op's own time.
func managedHost(opHost time.Duration, stats []*govStats, op int) time.Duration {
	for _, st := range stats {
		if st.op == op && !st.last.Equal(st.created) {
			return st.last.Sub(st.created)
		}
	}
	return opHost
}

func selfTable(tr *tracer) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, r := range tr.selfTimes() {
		out[r.Name] = map[string]float64{"count": float64(r.Count), "total": ms(r.Total), "self": ms(r.Self)}
	}
	return out
}

func ctrTLM(c memctrl.Counters) uint64 {
	var n uint64
	for _, v := range c.TLM {
		n += v
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func ratio(a, b uint64) float64 { return safeDiv(float64(a), float64(b)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxInt(vs []int) int {
	m := 0
	for _, v := range vs {
		m = max(m, v)
	}
	return m
}

func sortedMetricKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
