package sim

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"memscale/internal/config"
	"memscale/internal/event"
	"memscale/internal/faults"
	"memscale/internal/trace"
)

// buildConfinedStreams is buildStreams with OS page placement confining
// core i to channel i mod Channels — the partitioned workload shape the
// channel-sharded event engine requires.
func buildConfinedStreams(t *testing.T, cfg *config.Config, profiles []trace.Profile, seed uint64) []*trace.Stream {
	t.Helper()
	mapper := config.NewAddressMapper(cfg)
	streams := make([]*trace.Stream, len(profiles))
	for i, p := range profiles {
		s, err := trace.NewStreamOnChannels(p, mapper, seed+uint64(i)*0x9e3779b97f4a7c15,
			[]int{i % cfg.Channels})
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	return streams
}

// buildInterleavedStreams is buildStreams with OS page placement
// striping core i across its own 2-channel group (channels [g*2, g*2+2)
// with g = i mod Channels/2) — the interleaved shape whose confinement
// groups the shard analysis discovers although no stream is
// channel-confined.
func buildInterleavedStreams(t *testing.T, cfg *config.Config, profiles []trace.Profile, seed uint64) []*trace.Stream {
	t.Helper()
	if cfg.Channels%2 != 0 {
		t.Fatalf("%d channels not divisible by interleave width 2", cfg.Channels)
	}
	groups := cfg.Channels / 2
	mapper := config.NewAddressMapper(cfg)
	streams := make([]*trace.Stream, len(profiles))
	for i, p := range profiles {
		g := i % groups
		s, err := trace.NewStreamOnChannels(p, mapper, seed+uint64(i)*0x9e3779b97f4a7c15,
			[]int{g * 2, g*2 + 1})
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	return streams
}

// TestShardSerialFallback pins the engine's eligibility rules: a
// workload whose channel-affinity sets collapse into one confinement
// group (any stream roaming every channel does it), or a per-channel
// governor, must silently run on one shard even when Shards > 1 (zero
// lookahead between shards makes those cases impossible to run
// bit-identically in parallel), and ParallelShards reports the shard
// count actually in use. Telemetry is NOT a fallback cause: the recorder's
// per-channel cells are shard-local and merge at window edges.
func TestShardSerialFallback(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = 4
	profile := trace.Profile{Name: "fallback", Phases: []trace.Phase{
		{BaseCPI: 1, MPKI: 20, WPKI: 5, RowLocality: 0.5},
	}}
	profiles := make([]trace.Profile, cfg.Cores)
	for i := range profiles {
		profiles[i] = profile
	}

	t.Run("interleaved workload", func(t *testing.T) {
		s, err := New(cfg, buildStreams(t, &cfg, profiles, 1), Options{
			Governor: &ladderGovernor{}, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ParallelShards(); got != 1 {
			t.Errorf("ParallelShards() = %d for interleaved streams, want 1", got)
		}
	})
	t.Run("confined workload engages", func(t *testing.T) {
		s, err := New(cfg, buildConfinedStreams(t, &cfg, profiles, 1), Options{
			Governor: &ladderGovernor{}, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ParallelShards(); got != 4 {
			t.Errorf("ParallelShards() = %d for confined streams, want 4", got)
		}
	})
	t.Run("group-interleaved workload engages at group count", func(t *testing.T) {
		s, err := New(cfg, buildInterleavedStreams(t, &cfg, profiles, 1), Options{
			Governor: &ladderGovernor{}, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ParallelShards(); got != 2 {
			t.Errorf("ParallelShards() = %d for 2-channel groups, want 2", got)
		}
	})
	t.Run("shards clamp to channels", func(t *testing.T) {
		cfg := cfg
		cfg.Channels = 2
		s, err := New(cfg, buildConfinedStreams(t, &cfg, profiles, 1), Options{
			Governor: &ladderGovernor{}, Shards: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ParallelShards(); got != 2 {
			t.Errorf("ParallelShards() = %d with 2 channels, want 2", got)
		}
	})
}

// FuzzShardEquivalence is the parallel engine's core contract under
// adversarial inputs: for any channel-partitioned or group-interleaved
// workload shape, shard count, and refresh-storm schedule, the sharded
// run must be equivalent to the serial run request for request —
// identical MC counters (every request saw the same bank state, queue
// depth, and row-buffer outcome), identical per-core CPI, energy,
// residency, fault counts, and fired-event total. GOMAXPROCS does not
// matter for the property: the window protocol is deterministic, not
// scheduling-dependent. The low bit of the placement byte picks
// channel-confined (PR 9's shape) or 2-channel group-interleaved
// streams (the §4l shape, where no stream has a home channel).
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint64(1), 30.0, 0.2, 8.0, 0.7, uint8(2), uint8(1), uint8(0))
	f.Add(uint64(42), 55.0, 0.0, 20.0, 0.2, uint8(4), uint8(3), uint8(0))
	f.Add(uint64(7), 5.0, 4.9, 0.1, 0.95, uint8(3), uint8(0), uint8(1))
	f.Add(uint64(1789), 25.0, 1.5, 4.0, 0.5, uint8(2), uint8(2), uint8(1))

	f.Fuzz(func(t *testing.T, seed uint64, burstMPKI, idleMPKI, wbFrac, rowLoc float64,
		shards, storms, placement uint8) {

		clamp := func(v, lo, hi float64) float64 {
			if math.IsNaN(v) || v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
		burstMPKI = clamp(burstMPKI, 1, 80)
		idleMPKI = clamp(idleMPKI, 0.01, 5)
		rowLoc = clamp(rowLoc, 0, 0.99)
		wbFrac = clamp(wbFrac, 0, 1)

		cfg := config.Default()
		cfg.Cores = 4
		cfg.Policy.EpochLength = 2 * config.Millisecond

		profile := trace.Profile{Name: "fuzz", Phases: []trace.Phase{
			{Instructions: 10_000 + seed%50_000, BaseCPI: 1, MPKI: burstMPKI,
				WPKI: burstMPKI * wbFrac, RowLocality: rowLoc},
			{Instructions: 40_000, BaseCPI: 0.7, MPKI: idleMPKI,
				WPKI: idleMPKI * wbFrac, RowLocality: rowLoc},
			{BaseCPI: 1, MPKI: burstMPKI / 2, WPKI: burstMPKI / 2 * wbFrac,
				RowLocality: 0.99 - rowLoc},
		}}
		profiles := make([]trace.Profile, cfg.Cores)
		for i := range profiles {
			profiles[i] = profile
		}

		// Cross-shard traffic: a storm schedule that fires inside the run,
		// so the window protocol's ticket reservation is exercised.
		fc := faults.Config{
			Seed:               seed,
			RefreshStormRate:   1,
			RefreshStormBursts: 1 + int(storms)%4,
		}

		build := buildConfinedStreams
		if placement%2 == 1 {
			build = buildInterleavedStreams
		}
		run := func(n int) (Result, interface{}) {
			inj, err := faults.New(fc, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg, build(t, &cfg, profiles, seed), Options{
				Governor: &ladderGovernor{},
				Faults:   inj,
				Shards:   n,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := s.RunFor(2 * cfg.Policy.EpochLength)
			return res, s.MC.Counters()
		}

		serial, serialCtr := run(1)
		n := 2 + int(shards)%(cfg.Channels-1) // 2..Channels
		sharded, shardedCtr := run(n)

		requireSameResult(t, serial, sharded)
		if !reflect.DeepEqual(serialCtr, shardedCtr) {
			t.Errorf("MC counters diverged at %d shards:\nserial:  %+v\nsharded: %+v",
				n, serialCtr, shardedCtr)
		}
		if serial.Faults != sharded.Faults {
			t.Errorf("fault counts diverged: %+v != %+v", serial.Faults, sharded.Faults)
		}
		if serial.Events != sharded.Events {
			t.Errorf("sharded run fired %d events, serial fired %d", sharded.Events, serial.Events)
		}
	})
}

// TestLegacyStormRestore covers checkpoints written by engines that
// queued refresh-storm bursts as ordinary events: a state carrying a
// pending "sim.force_refresh" entry must restore on one shard whatever
// the requested count, fire the burst, and stay deterministic.
func TestLegacyStormRestore(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = 4
	cfg.Policy.EpochLength = 2 * config.Millisecond
	profile := trace.Profile{Name: "legacy", Phases: []trace.Phase{
		{BaseCPI: 1, MPKI: 20, WPKI: 5, RowLocality: 0.5},
	}}
	profiles := []trace.Profile{profile, profile, profile, profile}
	streams := func() []*trace.Stream { return buildConfinedStreams(t, &cfg, profiles, 3) }

	src, err := New(cfg, streams(), Options{Governor: &ladderGovernor{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	clean, err := src.Save()
	if err != nil {
		t.Fatal(err)
	}
	// The legacy image: the boundary state plus one queued burst, its
	// entries kept in canonical (time, seq) order.
	ck, err := src.Save()
	if err != nil {
		t.Fatal(err)
	}
	ev := ck.Events
	ev.Seq++
	ev.Scheduled++
	ev.Nodes = append(ev.Nodes, event.NodeState{Kind: "sim.force_refresh"})
	ev.Heap = append(ev.Heap, event.EntryState{
		At: ev.Now + config.Microsecond, Seq: ev.Seq, Idx: int32(len(ev.Nodes) - 1)})
	sort.Slice(ev.Heap, func(a, b int) bool {
		if ev.Heap[a].At != ev.Heap[b].At {
			return ev.Heap[a].At < ev.Heap[b].At
		}
		return ev.Heap[a].Seq < ev.Heap[b].Seq
	})

	resume := func(st *SystemState, shards int) (Result, *System) {
		t.Helper()
		s, err := Restore(cfg, streams(), Options{Governor: &ladderGovernor{}, Shards: shards}, st)
		if err != nil {
			t.Fatal(err)
		}
		return s.RunFor(2 * cfg.Policy.EpochLength), s
	}
	_, cleanSys := resume(clean, 4)
	if got := cleanSys.ParallelShards(); got != 4 {
		t.Fatalf("clean restore ran %d shards, want 4", got)
	}
	cleanRes, _ := resume(clean, 1)
	first, s := resume(ck, 4)
	if got := s.ParallelShards(); got != 1 {
		t.Errorf("legacy restore ran %d shards, want 1", got)
	}
	after, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	if hasPendingForceRefresh(after.Events) {
		t.Error("queued burst still pending after the run")
	}
	if first.Memory.Refresh <= cleanRes.Memory.Refresh {
		t.Errorf("refresh energy %g J not above the burst-free restore's %g J", first.Memory.Refresh, cleanRes.Memory.Refresh)
	}
	second, _ := resume(ck, 4)
	requireSameResult(t, first, second)
	if first.Events != second.Events {
		t.Errorf("restores fired %d and %d events", first.Events, second.Events)
	}
}
