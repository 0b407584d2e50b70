package event

import (
	"fmt"
	"sync"

	"memscale/internal/config"
)

// ShardSet is a conservatively synchronized set of event queues that
// together behave like one serial Queue over a partitioned simulation.
// Each shard owns a disjoint subset of the simulated components (the
// memory channels and the cores bound to them) and advances its own
// queue; shards only run concurrently inside a time window whose edge
// the caller guarantees free of cross-shard interaction, so no locks
// guard the queues themselves. A one-shard set is the serial engine:
// its single queue numbers events exactly like a zero Queue.
//
// Sequence numbers are allocated from disjoint residue classes of one
// notional global counter (shard j issues j+n, j+2n, ... of an n-shard
// set), which keeps the merged (time, seq) order of all shards both
// total and consistent with each shard's local order. Events of
// different shards never interact inside a window, and all same-instant
// ordering decisions in the simulator compare only seqs of the same
// shard, so the residue-class renumbering is unobservable — the
// parallel run is bit-identical to the one-shard run.
//
// Cross-shard events (the refresh storms a fault plan injects at an
// epoch edge) are exchanged only at window edges via reserved per-shard
// tickets: RunCross drains every shard exactly to its ticket's position
// and then executes the callback serially, which is precisely where a
// single queued event holding the ticket would have fired.
type ShardSet struct {
	qs []*Queue
}

// NewShardSet builds n empty shards with residue-class sequence
// numbering. n must be at least 1.
func NewShardSet(n int) *ShardSet {
	if n < 1 {
		panic(fmt.Sprintf("event: NewShardSet(%d)", n))
	}
	s := &ShardSet{qs: make([]*Queue, n)}
	for j := range s.qs {
		s.qs[j] = &Queue{seq: uint64(j), stride: uint64(n)}
	}
	return s
}

// Shards returns the number of member queues.
func (s *ShardSet) Shards() int { return len(s.qs) }

// Shard returns the j-th member queue.
func (s *ShardSet) Shard(j int) *Queue { return s.qs[j] }

// Now returns the common clock of the set. Outside RunUntil/RunCross
// every shard sits at the same instant (the last window edge).
func (s *ShardSet) Now() config.Time { return s.qs[0].now }

// Len returns the total number of pending events across all shards.
func (s *ShardSet) Len() int {
	n := 0
	for _, q := range s.qs {
		n += q.Len()
	}
	return n
}

// Fired returns the total number of events executed, counting each
// cross-shard callback once.
func (s *ShardSet) Fired() uint64 {
	var n uint64
	for _, q := range s.qs {
		n += q.fired
	}
	return n
}

// ScheduledTotal returns the total number of events ever scheduled.
func (s *ShardSet) ScheduledTotal() uint64 {
	var n uint64
	for _, q := range s.qs {
		n += q.scheduled
	}
	return n
}

// Coalesced returns the total number of trampoline events elided
// through the deferred-schedule plane across all shards.
func (s *ShardSet) Coalesced() uint64 {
	var n uint64
	for _, q := range s.qs {
		n += q.coalesced
	}
	return n
}

// NextAt returns the earliest pending fire time across all shards.
func (s *ShardSet) NextAt() (config.Time, bool) {
	var at config.Time
	ok := false
	for _, q := range s.qs {
		if t, qok := q.NextAt(); qok && (!ok || t < at) {
			at, ok = t, true
		}
	}
	return at, ok
}

// RunUntil advances every shard to the deadline, concurrently when the
// set has more than one shard. The caller guarantees the window
// (Now, deadline] is free of cross-shard interaction.
func (s *ShardSet) RunUntil(deadline config.Time) {
	if len(s.qs) == 1 {
		s.qs[0].RunUntil(deadline)
		return
	}
	var wg sync.WaitGroup
	for _, q := range s.qs[1:] {
		wg.Add(1)
		go func(q *Queue) {
			defer wg.Done()
			q.RunUntil(deadline)
		}(q)
	}
	s.qs[0].RunUntil(deadline)
	wg.Wait()
}

// ReserveTickets reserves one ordering ticket on every shard, in shard
// order, and returns them. A cross-shard event scheduled at a window
// edge takes a ticket per shard so that each shard can later be drained
// exactly to the event's position; the per-shard tickets occupy the
// same relative position in every shard's local order that one queued
// event's ticket would, which is all the simulator ever observes.
func (s *ShardSet) ReserveTickets() []Seq {
	ts := make([]Seq, len(s.qs))
	for j, q := range s.qs {
		ts[j] = q.ReserveSeq()
	}
	return ts
}

// RunCross advances every shard exactly to the position (at, ticket)
// of a cross-shard event — concurrently, since the segment up to the
// position is still inside the conservative window — then executes fn
// serially with every shard's clock at the event's instant and its
// firing cursor at the ticket, so same-instant ordering checks inside
// fn resolve exactly as they would around the serial engine's single
// event. The callback counts as one scheduled and one fired event of
// shard 0, exactly as the queued event would have.
func (s *ShardSet) RunCross(at config.Time, tickets []Seq, fn func(now config.Time)) {
	if len(tickets) != len(s.qs) {
		panic(fmt.Sprintf("event: RunCross with %d tickets for %d shards", len(tickets), len(s.qs)))
	}
	if len(s.qs) > 1 {
		var wg sync.WaitGroup
		for j, q := range s.qs[1:] {
			wg.Add(1)
			go func(q *Queue, t Seq) {
				defer wg.Done()
				q.RunUntilExclusive(at, t)
			}(q, tickets[j+1])
		}
		s.qs[0].RunUntilExclusive(at, tickets[0])
		wg.Wait()
	} else {
		s.qs[0].RunUntilExclusive(at, tickets[0])
	}
	for j, q := range s.qs {
		q.firing = uint64(tickets[j])
	}
	s.qs[0].scheduled++
	s.qs[0].fired++
	fn(at)
}
