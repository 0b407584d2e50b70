package runner

import "testing"

// TestSplitCores pins the work-conserving core split and its clamps
// (workers never exceed tasks, shards never exceed the request, the
// split itself never oversubscribes procs).
func TestSplitCores(t *testing.T) {
	cases := []struct {
		name                 string
		procs, tasks, shards int
		wantWorkers, wantPer int
	}{
		// Tasks outnumber cores -> every core runs a one-shard task.
		{"auto oversubscribed", 4, 16, 4, 4, 1},
		// Tasks fit -> leftover cores become shards.
		{"auto leftover to shards", 8, 2, 4, 2, 4},
		{"auto leftover clamped by request", 8, 2, 2, 2, 2},
		{"auto exact fit", 4, 4, 4, 4, 1},
		{"auto one task", 4, 1, 4, 1, 4},
		{"auto one task modest request", 4, 1, 2, 1, 2},
		// Degenerate inputs clamp to 1.
		{"zero procs", 0, 4, 4, 1, 1},
		{"zero tasks", 4, 0, 4, 1, 4},
		{"zero shards", 4, 2, 0, 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			workers, per := SplitCores(tc.procs, tc.tasks, tc.shards)
			if workers != tc.wantWorkers || per != tc.wantPer {
				t.Errorf("SplitCores(%d, %d, %d) = (%d, %d), want (%d, %d)",
					tc.procs, tc.tasks, tc.shards, workers, per, tc.wantWorkers, tc.wantPer)
			}
			if procs := max(tc.procs, 1); workers*per > procs && per > 1 {
				t.Errorf("split oversubscribes: %d workers x %d shards > %d procs", workers, per, procs)
			}
		})
	}
}
