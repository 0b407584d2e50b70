package event

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// parentImage is a queue image in the verbatim-arena format older
// engines wrote for one shard: free slots with generation counters, a
// LIFO free list, and a valid 4-ary heap whose array is not sorted.
const parentImage = `{"now":100,"seq":12,"fired":7,"scheduled":13,"coalesced":2,"firing":7,
"nodes":[
 {"gen":3,"pos":0,"kind":"fuzz.record","a":0,"b":10},
 {"gen":5,"pos":-1},
 {"gen":1,"pos":0,"kind":"fuzz.record","a":1,"b":11},
 {"gen":2,"pos":0,"kind":"fuzz.record","a":2,"b":12},
 {"gen":7,"pos":-1},
 {"gen":2,"pos":0,"kind":"fuzz.record","a":3,"b":13},
 {"gen":4,"pos":0,"kind":"fuzz.record","a":4,"b":14},
 {"gen":9,"pos":0,"kind":"fuzz.record","a":5,"b":15}],
"free":[4,1],
"heap":[
 {"at":100,"seq":8,"idx":3},
 {"at":150,"seq":3,"idx":6},
 {"at":110,"seq":5,"idx":0},
 {"at":120,"seq":2,"idx":7},
 {"at":100,"seq":9,"idx":2},
 {"at":200,"seq":1,"idx":5}],
"defers":[
 {"activate_at":105,"seq":10,"fire_at":110,"kind":"fuzz.record","owner":0,"a":6,"b":16},
 {"activate_at":130,"seq":11,"fire_at":130,"kind":"fuzz.record","owner":0,"a":7,"b":17}]}`

// drainImage loads st into a fresh set of n shards and runs it dry.
func drainImage(t *testing.T, st *State, n int) *fuzzRun {
	t.Helper()
	r := newFuzzRun(n)
	if err := r.set.Load(st, r.reg, r.shardOf); err != nil {
		t.Fatalf("load into %d shards: %v", n, err)
	}
	for r.set.Len() > 0 {
		r.stepInstant()
	}
	return r
}

// TestParentImageFiresLikeCanonical: an image in the older verbatim
// format fires exactly like its canonical re-save, on 1 and 2 shards —
// slot numbers, the free list and heap layout carry no behaviour.
func TestParentImageFiresLikeCanonical(t *testing.T) {
	var parent State
	if err := json.Unmarshal([]byte(parentImage), &parent); err != nil {
		t.Fatal(err)
	}
	want := []fuzzFire{
		{100, 2, 12}, {100, 1, 11}, {110, 0, 10}, {110, 6, 16},
		{120, 5, 15}, {130, 7, 17}, {150, 4, 14}, {200, 3, 13},
	}

	r := newFuzzRun(1)
	if err := r.set.Load(&parent, r.reg, r.shardOf); err != nil {
		t.Fatal(err)
	}
	canon, err := r.set.Save(r.reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(canon.Free) != 0 || len(canon.Nodes) != 6 || len(canon.Heap) != 6 {
		t.Fatalf("canonical image has %d free, %d nodes, %d entries; want 0, 6, 6",
			len(canon.Free), len(canon.Nodes), len(canon.Heap))
	}
	for i, e := range canon.Heap {
		if e.Idx != int32(i) || (i > 0 && entryCmp(canon.Heap[i-1], e) >= 0) {
			t.Fatalf("canonical heap is not dense and sorted: %+v", canon.Heap)
		}
	}
	raw, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"gen"`) {
		t.Errorf("canonical image carries generation counters: %s", raw)
	}

	for _, img := range []struct {
		name string
		st   *State
	}{{"parent", &parent}, {"canonical", canon}} {
		for _, n := range []int{1, 2} {
			got := drainImage(t, img.st, n)
			for j := 0; j < n; j++ {
				var own []fuzzFire
				for _, f := range want {
					if int(f.a)%n == j {
						own = append(own, f)
					}
				}
				if !slices.Equal(got.fires[j], own) {
					t.Errorf("%s image on %d shards: shard %d fired %v, want %v", img.name, n, j, got.fires[j], own)
				}
			}
			if f, s, c := got.set.Fired(), got.set.ScheduledTotal(), got.set.Coalesced(); f != 15 || s != 15 || c != 2 {
				t.Errorf("%s image on %d shards: fired/scheduled/coalesced %d/%d/%d, want 15/15/2", img.name, n, f, s, c)
			}
		}
	}
}

// TestLoadRejectsMalformed: every structural defect in an image yields
// an error naming it and leaves the set as it was.
func TestLoadRejectsMalformed(t *testing.T) {
	valid := func() *State {
		return &State{
			Now: 100, Seq: 10,
			Nodes: []NodeState{{Kind: "fuzz.record", A: 0}, {Kind: "fuzz.record", A: 1}},
			Heap:  []EntryState{{At: 100, Seq: 5, Idx: 0}, {At: 120, Seq: 6, Idx: 1}},
			Defers: []DeferredState{
				{ActivateAt: 110, Seq: 7, FireAt: 130, Kind: "fuzz.record", A: 2},
			},
		}
	}
	cases := []struct {
		name    string
		corrupt func(st *State)
		want    string
	}{
		{"heap index out of range", func(st *State) { st.Heap[1].Idx = 5 }, "out of range"},
		{"heap references free node", func(st *State) { st.Nodes[1].Pos = -1 }, "references free node"},
		{"entry fires before now", func(st *State) { st.Heap[0].At = 50 }, "before now"},
		{"pending node listed twice", func(st *State) { st.Heap[1].Idx = 0 }, "appears 2 times"},
		{"pending node missing from heap", func(st *State) {
			st.Nodes = append(st.Nodes, NodeState{Kind: "fuzz.record"})
		}, "appears 0 times"},
		{"free index out of range", func(st *State) { st.Free = []int32{7} }, "out of range"},
		{"free list names pending node", func(st *State) { st.Free = []int32{0} }, "names a pending node"},
		{"duplicate entry key", func(st *State) { st.Heap[1].At, st.Heap[1].Seq = 100, 5 }, "share key"},
		{"deferred fires before activation", func(st *State) { st.Defers[0].FireAt = 105 }, "before activation"},
		{"deferred activates before now", func(st *State) {
			st.Defers[0].ActivateAt, st.Defers[0].FireAt = 10, 20
		}, "activates at"},
		{"duplicate deferred key", func(st *State) {
			d := st.Defers[0]
			d.FireAt = 140
			st.Defers = append(st.Defers, d)
		}, "share key"},
		{"unknown kind", func(st *State) { st.Nodes[0].Kind = "nope" }, "unknown event kind"},
		{"shard out of range", func(st *State) { st.Defers[0].A = -1 }, "assigned to shard -1"},
	}

	fresh := func() *fuzzRun {
		r := newFuzzRun(2)
		r.set.Shard(1).ScheduleBound(40, fuzzRecord, r, 1, 0)
		r.set.RunUntil(30)
		return r
	}
	if r := fresh(); r.set.Load(valid(), r.reg, r.shardOf) != nil {
		t.Fatal("the uncorrupted image must load")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := valid()
			tc.corrupt(st)
			r := fresh()
			err := r.set.Load(st, r.reg, r.shardOf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if r.set.Now() != 30 || r.set.Len() != 1 || r.set.Fired() != 0 {
				t.Errorf("failed load changed the set: now %v, len %d, fired %d", r.set.Now(), r.set.Len(), r.set.Fired())
			}
		})
	}
}
