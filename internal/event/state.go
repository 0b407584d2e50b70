package event

import (
	"cmp"
	"fmt"
	"slices"

	"memscale/internal/config"
)

// This file is the checkpoint plane of the event engine. A ShardSet of
// any shard count saves one canonical image: the pending events of
// every shard, dense and sorted by (time, seq), plus the deferred
// schedules sorted by (activation, seq). Because (time, seq) keys are
// unique, pop order is a function of the keys alone — not of slot
// numbers, free-list order or slice layout — so loading the image into
// any number of shards reproduces the saved run's future exactly.
//
// Callbacks cannot be serialized directly (they are function values
// bound to live simulator components), so Save translates each pending
// callback through a Registry into a (kind, owner) payload, and Load
// asks a Registry built over the freshly reconstructed components to
// rebind them.

// NodeState is the serializable image of one pending event: the
// encoded callback payload and inline arguments. Pos < 0 marks a free
// slot; Save never writes one, but images of the older verbatim-arena
// format carry them and still load.
type NodeState struct {
	Pos   int32  `json:"pos"`
	Kind  string `json:"kind,omitempty"`
	Owner int32  `json:"owner,omitempty"`
	A     int32  `json:"a,omitempty"`
	B     int32  `json:"b,omitempty"`
}

// EntryState is one pending event's ordering key and the index of its
// node.
type EntryState struct {
	At  config.Time `json:"at"`
	Seq uint64      `json:"seq"`
	Idx int32       `json:"idx"`
}

// DeferredState is one lazily materialized schedule from the deferred
// plane.
type DeferredState struct {
	ActivateAt config.Time `json:"activate_at"`
	Seq        uint64      `json:"seq"`
	FireAt     config.Time `json:"fire_at"`
	Kind       string      `json:"kind"`
	Owner      int32       `json:"owner"`
	A          int32       `json:"a,omitempty"`
	B          int32       `json:"b,omitempty"`
}

// State is the serializable image of a ShardSet. Heap lists the
// pending entries; it keeps the name older images use. Free is never
// written; it is kept so images of the older verbatim-arena format,
// which list their free slots, are still validated on load.
type State struct {
	Now       config.Time     `json:"now"`
	Seq       uint64          `json:"seq"`
	Fired     uint64          `json:"fired"`
	Scheduled uint64          `json:"scheduled"`
	Coalesced uint64          `json:"coalesced"`
	Firing    uint64          `json:"firing"`
	Nodes     []NodeState     `json:"nodes"`
	Free      []int32         `json:"free"`
	Heap      []EntryState    `json:"heap"`
	Defers    []DeferredState `json:"defers,omitempty"`
}

// keyCmp orders two (time, seq) keys.
func keyCmp(at1 config.Time, seq1 uint64, at2 config.Time, seq2 uint64) int {
	if c := cmp.Compare(at1, at2); c != 0 {
		return c
	}
	return cmp.Compare(seq1, seq2)
}

func entryCmp(x, y EntryState) int { return keyCmp(x.At, x.Seq, y.At, y.Seq) }

func deferredCmp(x, y DeferredState) int {
	return keyCmp(x.ActivateAt, x.Seq, y.ActivateAt, y.Seq)
}

// Save captures the set as one canonical image, translating every
// pending callback through reg. Entries are sorted ascending by (time,
// seq) — the reverse of a queue's descending pending slice — over a
// dense node array whose i-th node belongs to the i-th entry. Callbacks
// are encoded in that order, pending events before deferred schedules,
// so whatever reg interns while encoding (a request table) is
// numbered by key too, not by the shards' layout. The set is left
// untouched.
func (s *ShardSet) Save(reg *Registry) (*State, error) {
	type pending struct {
		key EntryState
		n   *node
	}
	var ps []pending
	var ds []*deferred
	st := &State{Now: s.Now()}
	for _, q := range s.qs {
		st.Seq = max(st.Seq, q.seq)
		st.Firing = max(st.Firing, q.firing)
		st.Fired += q.fired
		st.Scheduled += q.scheduled
		st.Coalesced += q.coalesced
		for _, e := range q.pending {
			ps = append(ps, pending{key: EntryState{At: e.at, Seq: e.seq}, n: &q.nodes[e.idx]})
		}
		for i := range q.defers {
			ds = append(ds, &q.defers[i])
		}
	}
	slices.SortFunc(ps, func(x, y pending) int { return entryCmp(x.key, y.key) })
	st.Heap = make([]EntryState, len(ps))
	st.Nodes = make([]NodeState, len(ps))
	for i, p := range ps {
		kind, owner, err := reg.Encode(p.n.bfn, p.n.env)
		if err != nil {
			return nil, fmt.Errorf("event: save entry: %w", err)
		}
		p.key.Idx = int32(i)
		st.Heap[i] = p.key
		st.Nodes[i] = NodeState{Kind: kind, Owner: owner, A: p.n.a, B: p.n.b}
	}
	slices.SortFunc(ds, func(x, y *deferred) int { return keyCmp(x.activateAt, x.seq, y.activateAt, y.seq) })
	for _, d := range ds {
		kind, owner, err := reg.Encode(d.bfn, d.env)
		if err != nil {
			return nil, fmt.Errorf("event: save deferred: %w", err)
		}
		st.Defers = append(st.Defers, DeferredState{
			ActivateAt: d.activateAt, Seq: d.seq, FireAt: d.fireAt,
			Kind: kind, Owner: owner, A: d.a, B: d.b,
		})
	}
	return st, nil
}

// ShardOf assigns a saved pending event to a shard. It receives the
// encoded payload of the event; an error rejects the whole load (the
// state contains an event the partition cannot place).
type ShardOf func(kind string, owner, a, b int32) (int, error)

// Load replaces the set's state with st, rebinding every pending
// callback through reg. Every pending event and deferred schedule goes
// to the shard shardOf names, keeping its (time, seq) key, so the
// merged order — and therefore future behaviour — is exactly the saved
// one. Totals are carried on shard 0; sequence counters restart above
// the saved counter in each shard's residue class.
//
// A malformed image yields an error, never a panic in later queue
// operations, and leaves the set untouched: indices must be in range,
// free slots must not be referenced, every pending node must appear
// exactly once, nothing may fire or activate before Now, no deferred
// schedule may fire before its activation, and no two entries (or two
// deferred schedules) may share a (time, seq) key — pop order is only
// layout-independent when keys are unique.
func (s *ShardSet) Load(st *State, reg *Registry, shardOf ShardOf) error {
	n := len(st.Nodes)
	for i, idx := range st.Free {
		if idx < 0 || int(idx) >= n {
			return fmt.Errorf("event: load: free[%d]=%d out of range [0,%d)", i, idx, n)
		}
		if st.Nodes[idx].Pos >= 0 {
			return fmt.Errorf("event: load: free[%d]=%d names a pending node", i, idx)
		}
	}
	refs := make([]int, n)
	for i, e := range st.Heap {
		if e.Idx < 0 || int(e.Idx) >= n {
			return fmt.Errorf("event: load: heap[%d].idx=%d out of range [0,%d)", i, e.Idx, n)
		}
		if st.Nodes[e.Idx].Pos < 0 {
			return fmt.Errorf("event: load: heap[%d] references free node %d", i, e.Idx)
		}
		if e.At < st.Now {
			return fmt.Errorf("event: load: heap[%d] fires at %v before now %v", i, e.At, st.Now)
		}
		refs[e.Idx]++
	}
	for i := range st.Nodes {
		if st.Nodes[i].Pos >= 0 && refs[i] != 1 {
			return fmt.Errorf("event: load: pending node %d appears %d times in heap", i, refs[i])
		}
	}

	shards := len(s.qs)
	place := func(kind string, owner, a, b int32) (int, Bound, any, error) {
		j, err := shardOf(kind, owner, a, b)
		if err != nil {
			return 0, nil, nil, err
		}
		if j < 0 || j >= shards {
			return 0, nil, nil, fmt.Errorf("kind %q assigned to shard %d of %d", kind, j, shards)
		}
		fn, env, err := reg.Decode(kind, owner)
		return j, fn, env, err
	}
	qs := make([]Queue, shards)
	for j := range qs {
		qs[j] = Queue{now: st.Now, seq: st.Seq + uint64(j), stride: uint64(shards), firing: st.Firing}
	}
	qs[0].fired, qs[0].scheduled, qs[0].coalesced = st.Fired, st.Scheduled, st.Coalesced

	// Distributing in canonical order leaves each shard's entries — a
	// subsequence — sorted ascending; each is reversed once below into
	// the queue's descending layout.
	entries := slices.Clone(st.Heap)
	slices.SortFunc(entries, entryCmp)
	for i, e := range entries {
		if i > 0 && entryCmp(entries[i-1], e) == 0 {
			return fmt.Errorf("event: load: two entries share key (%v, %d)", e.At, e.Seq)
		}
		ns := st.Nodes[e.Idx]
		j, fn, env, err := place(ns.Kind, ns.Owner, ns.A, ns.B)
		if err != nil {
			return fmt.Errorf("event: load entry: %w", err)
		}
		q := &qs[j]
		q.pending = append(q.pending, entry{at: e.At, seq: e.Seq, idx: int32(len(q.nodes))})
		q.nodes = append(q.nodes, node{bfn: fn, env: env, a: ns.A, b: ns.B})
	}
	defers := slices.Clone(st.Defers)
	slices.SortFunc(defers, deferredCmp)
	for i, d := range defers {
		if d.ActivateAt < st.Now {
			return fmt.Errorf("event: load: deferred activates at %v before now %v", d.ActivateAt, st.Now)
		}
		if d.FireAt < d.ActivateAt {
			return fmt.Errorf("event: load: deferred fires at %v before activation %v", d.FireAt, d.ActivateAt)
		}
		if i > 0 && deferredCmp(defers[i-1], d) == 0 {
			return fmt.Errorf("event: load: two deferred schedules share key (%v, %d)", d.ActivateAt, d.Seq)
		}
		j, fn, env, err := place(d.Kind, d.Owner, d.A, d.B)
		if err != nil {
			return fmt.Errorf("event: load deferred: %w", err)
		}
		qs[j].defers = append(qs[j].defers, deferred{
			activateAt: d.ActivateAt, seq: d.Seq, fireAt: d.FireAt,
			bfn: fn, env: env, a: d.A, b: d.B,
		})
	}
	for j, q := range s.qs {
		slices.Reverse(qs[j].pending)
		slices.Reverse(qs[j].defers)
		*q = qs[j]
	}
	return nil
}
