package memscale

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// requireInvalid asserts err is ErrInvalidConfig naming the given
// field path.
func requireInvalid(t *testing.T, err error, path string) {
	t.Helper()
	if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want ErrInvalidConfig naming %s", err, path)
	}
}

// shardCounts are the shard counts the parity suite runs against the
// serial reference: 2, 4 (one shard per default channel), and — when it
// is distinct and usable — GOMAXPROCS, so CI exercises the engine at
// the width it actually runs benchmarks at. Counts above the default
// channel count are clamped (Validate rejects shards > channels).
func shardCounts() []int {
	counts := []int{2, 4}
	g := runtime.GOMAXPROCS(0)
	if g > 4 {
		g = 4
	}
	if g > 1 && g != 2 && g != 4 {
		counts = append(counts, g)
	}
	return counts
}

// TestShardParity is the parallel engine's acceptance gate at the
// public API: every golden determinism config — including the
// fault-injected one, whose refresh storms are cross-shard events —
// run on its channel-partitioned variant must produce Float64bits-
// identical summaries on the serial engine and on every shard count.
// The differential covers the whole stack: partitioned trace
// placement, per-channel controller ownership, the conservative window
// loop, storm ticket reservation, and the paired-baseline runner.
func TestShardParity(t *testing.T) {
	ctx := context.Background()
	for _, base := range goldenConfigs() {
		rc := base
		rc.Partitioned = true
		t.Run(rc.Mix+"/"+rc.Policy, func(t *testing.T) {
			t.Parallel()
			serial, err := RunContext(ctx, rc)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range shardCounts() {
				src := rc
				src.Shards = n
				got, err := RunContext(ctx, src)
				if err != nil {
					t.Fatalf("shards=%d: %v", n, err)
				}
				sameBits(t, fmt.Sprintf("shards=%d", n), serial, got)
			}
		})
	}
}

// canonicalTelemetry renders a summary's telemetry export as JSONL
// with the host-clock observations zeroed: HostNs on every epoch
// snapshot and the epoch_host histogram record host wall time, which
// differs between any two runs by nature. Everything else in the
// stream is simulated state, and the sharded engine must reproduce it
// byte for byte.
func canonicalTelemetry(t *testing.T, sum RunSummary) string {
	t.Helper()
	if sum.Telemetry == nil {
		t.Fatal("run carries no telemetry export")
	}
	for i := range sum.Telemetry.Epochs {
		sum.Telemetry.Epochs[i].HostNs = 0
	}
	if h := sum.Telemetry.Histogram("epoch_host"); h != nil {
		h.Reset()
	}
	var buf bytes.Buffer
	if err := WriteTelemetry(&buf, sum); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// firstDiffLine reports the 1-based line at which two JSONL streams
// first diverge, for failure messages.
func firstDiffLine(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return i + 1
		}
	}
	return min(len(la), len(lb)) + 1
}

// TestShardTelemetryParity is the sharded-telemetry acceptance gate:
// every golden config, instrumented with full telemetry (events on),
// must produce Float64bits-identical summaries AND byte-identical
// JSONL exports on the serial engine and on every shard count. The
// per-channel telemetry cells record lock-free inside conservative
// windows; the deterministic window-edge merge must reconstruct
// exactly the stream a serial instrumented run writes — same event
// order, same histogram counts, same epoch snapshots.
func TestShardTelemetryParity(t *testing.T) {
	ctx := context.Background()
	for _, base := range goldenConfigs() {
		rc := base
		rc.Partitioned = true
		rc.Telemetry = &TelemetryConfig{Events: true}
		t.Run(rc.Mix+"/"+rc.Policy, func(t *testing.T) {
			t.Parallel()
			serial, err := RunContext(ctx, rc)
			if err != nil {
				t.Fatal(err)
			}
			if serial.EngineShards != 1 {
				t.Errorf("serial run reports EngineShards = %d, want 1", serial.EngineShards)
			}
			want := canonicalTelemetry(t, serial)
			for _, n := range append([]int{1}, shardCounts()...) {
				src := rc
				src.Shards = n
				got, err := RunContext(ctx, src)
				if err != nil {
					t.Fatalf("shards=%d: %v", n, err)
				}
				sameBits(t, fmt.Sprintf("shards=%d", n), serial, got)
				if n > 1 && got.EngineShards != n {
					t.Errorf("shards=%d: EngineShards = %d, want %d (partitioned golden mixes must engage fully)",
						n, got.EngineShards, n)
				}
				if gotTel := canonicalTelemetry(t, got); gotTel != want {
					t.Errorf("shards=%d: telemetry JSONL diverged from the serial run (%d vs %d bytes; first difference at line %d)",
						n, len(gotTel), len(want), firstDiffLine(want, gotTel))
				}
			}
		})
	}
}

// TestBankShardParity covers the confinement-group analysis on
// unpartitioned workloads. The "/ilv2" interleaved variants stripe
// each application across a 2-channel group — no stream is
// channel-confined — yet the groups never share a channel, so the engine finds two confinement
// groups and shards at their boundary, bit-identical to serial. The
// plain mixes interleave every stream across all channels (one
// component) and must fall back to serial with identical results.
func TestBankShardParity(t *testing.T) {
	ctx := context.Background()
	for _, base := range goldenConfigs() {
		rc := base
		rc.Mix += InterleavePrefix + "2"
		t.Run(rc.Mix+"/"+rc.Policy, func(t *testing.T) {
			t.Parallel()
			serial, err := RunContext(ctx, rc)
			if err != nil {
				t.Fatal(err)
			}
			if serial.EngineShards != 1 {
				t.Errorf("serial run reports EngineShards = %d, want 1", serial.EngineShards)
			}
			for _, n := range shardCounts() {
				src := rc
				src.Shards = n
				got, err := RunContext(ctx, src)
				if err != nil {
					t.Fatalf("shards=%d: %v", n, err)
				}
				sameBits(t, fmt.Sprintf("shards=%d", n), serial, got)
				// Four default channels in 2-channel groups: two
				// confinement groups cap the effective count.
				if want := min(n, 2); got.EngineShards != want {
					t.Errorf("shards=%d: EngineShards = %d, want %d", n, got.EngineShards, want)
				}
			}
		})
	}
	t.Run("plain interleaved falls back to serial", func(t *testing.T) {
		t.Parallel()
		base := RunConfig{Mix: "MEM1", Policy: "MemScale", Epochs: 2}
		serial, err := RunContext(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		src := base
		src.Shards = 4
		got, err := RunContext(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if got.EngineShards != 1 {
			t.Errorf("EngineShards = %d, want 1 (fully interleaved placement has one confinement group)", got.EngineShards)
		}
		sameBits(t, "fallback", serial, got)
	})
	t.Run("granularity bank engages interleaved", func(t *testing.T) {
		t.Parallel()
		// Banks of one channel share its bus, so the confinement-group
		// analysis is the finest granularity: each 2-channel group of
		// MEM1/ilv2 becomes a shard.
		rc := RunConfig{Mix: "MEM1/ilv2", Policy: "MemScale", Epochs: 2, Shards: 2}
		got, err := RunContext(ctx, rc)
		if err != nil {
			t.Fatal(err)
		}
		if got.EngineShards != 2 {
			t.Errorf("EngineShards = %d, want 2", got.EngineShards)
		}
	})
}

// TestShardValidate pins the shards field's validation paths: negatives
// and counts above the channel count are rejected with ErrInvalidConfig
// naming the field, for both the single-run and fleet configs.
func TestShardValidate(t *testing.T) {
	cases := []struct {
		name string
		rc   RunConfig
		path string
	}{
		{"negative", RunConfig{Mix: "MID1", Shards: -1}, "shards"},
		{"exceeds default channels", RunConfig{Mix: "MID1", Shards: 5}, "shards"},
		{"exceeds explicit channels", RunConfig{Mix: "MID1", Channels: 2, Shards: 3}, "shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireInvalid(t, tc.rc.Validate(), tc.path)
		})
	}
	t.Run("fleet negative", func(t *testing.T) {
		fc := FleetConfig{Groups: []NodeGroup{{Nodes: 1, Mix: "MID1", Shards: -1}}}
		requireInvalid(t, fc.Validate(), "groups[0].shards")
	})
	t.Run("fleet exceeds channels", func(t *testing.T) {
		fc := FleetConfig{Groups: []NodeGroup{{Nodes: 1, Mix: "MID1", Channels: 2, Shards: 4}}}
		requireInvalid(t, fc.Validate(), "groups[0].shards")
	})
	t.Run("shards equal to channels is valid", func(t *testing.T) {
		rc := RunConfig{Mix: "MID1", Shards: 4}
		if err := rc.Validate(); err != nil {
			t.Fatalf("Validate() = %v, want nil", err)
		}
	})
}

// TestFleetShardIdentity extends the fleet's worker-count determinism
// contract to the event engine: the same fleet on serial nodes and on
// 4-shard nodes yields a bit-identical summary, under capping and
// chaos-free conditions alike.
func TestFleetShardIdentity(t *testing.T) {
	ctx := context.Background()
	base := FleetConfig{
		Epochs:       3,
		Seed:         11,
		PowerBudgetW: 400,
		Groups: []NodeGroup{
			{Name: "mem", Nodes: 2, Mix: "MEM1/part", Cores: 4},
			{Name: "mid", Nodes: 2, Mix: "MID1/part", Cores: 4},
		},
	}
	serial, err := RunFleet(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	for i := range sharded.Groups {
		sharded.Groups[i].Shards = 4
	}
	got, err := RunFleet(ctx, sharded)
	if err != nil {
		t.Fatal(err)
	}
	if serial.SER != got.SER || serial.AvgCPIIncrease != got.AvgCPIIncrease ||
		serial.MemAvgPowerW != got.MemAvgPowerW {
		t.Errorf("fleet summary diverged across shard counts:\nserial:  SER=%v CPI=%v P=%v\nsharded: SER=%v CPI=%v P=%v",
			serial.SER, serial.AvgCPIIncrease, serial.MemAvgPowerW,
			got.SER, got.AvgCPIIncrease, got.MemAvgPowerW)
	}
}
