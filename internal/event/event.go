// Package event implements the discrete-event simulation engine that
// drives the MemScale memory-system simulator.
//
// The engine is a deterministic single-threaded priority queue of
// timestamped callbacks. Events scheduled for the same instant fire in
// the order they were scheduled, which keeps every simulation run
// exactly reproducible.
//
// The queue is built for a zero-allocation steady state: event nodes
// live in a pooled arena and are recycled through a free list after
// they fire, the priority queue is a flat 4-ary min-heap of (time, seq)
// keys with no interface boxing, and every callback is a pre-bound
// Bound with inline arguments, so scheduling never captures a closure.
// The (time, seq) key is unique, so pop order is a total order that no
// heap layout can change.
package event

import (
	"fmt"

	"memscale/internal/config"
)

// Bound is the pre-bound callback form: the environment pointer and two
// integer arguments are stored inline in the event node, so scheduling
// a Bound callback allocates nothing in steady state. Typical use binds
// a method value once at construction time and passes per-event state
// through env/a/b.
type Bound func(now config.Time, env any, a, b int32)

// entry is one element of the flat 4-ary min-heap: the ordering key
// (time, then schedule sequence for same-instant FIFO) plus the index
// of the pooled node carrying the callback.
type entry struct {
	at  config.Time
	seq uint64
	idx int32
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// node is one pooled event: the callback and its inline arguments.
// Heap entries name their node by index, so sift moves are pure entry
// copies.
type node struct {
	bfn  Bound
	env  any
	a, b int32
}

// deferred is one lazily materialized schedule (see ScheduleVia): at
// the activation point — among same-instant events, exactly where the
// ticket was positioned — the target callback is pushed onto the heap
// with a fresh sequence number, as if a trampoline event had fired
// there and scheduled it.
type deferred struct {
	activateAt config.Time
	seq        uint64
	fireAt     config.Time
	bfn        Bound
	env        any
	a, b       int32
}

func deferredBefore(d *deferred, e entry) bool {
	if d.activateAt != e.at {
		return d.activateAt < e.at
	}
	return d.seq < e.seq
}

// Queue is the event priority queue and simulation clock.
// The zero value is ready to use.
type Queue struct {
	heap  []entry
	nodes []node
	free  []int32
	now   config.Time
	seq   uint64

	// defers is a second 4-ary min-heap, keyed (activateAt, seq), of
	// lazily materialized schedules. Entries migrate to the main heap
	// when processing reaches their activation position.
	defers []deferred

	fired     uint64
	scheduled uint64
	coalesced uint64
	firing    uint64 // seq of the event currently (or most recently) firing

	// stride is the sequence-number increment. Zero behaves as 1 (the
	// serial queue); a shard of a ShardSet uses the shard count so the
	// member queues allocate from disjoint residue classes of one global
	// counter and their merged (time, seq) order is well defined.
	stride uint64
}

// bump advances the sequence counter by one allocation step and
// returns the new value.
func (q *Queue) bump() uint64 {
	s := q.stride
	if s == 0 {
		s = 1
	}
	q.seq += s
	return q.seq
}

// Now returns the current simulated time.
func (q *Queue) Now() config.Time { return q.now }

// Len returns the number of pending events, counting deferred
// schedules that have not yet materialized.
func (q *Queue) Len() int { return len(q.heap) + len(q.defers) }

// Fired returns the number of events executed so far.
func (q *Queue) Fired() uint64 { return q.fired }

// ScheduledTotal returns the number of events ever scheduled.
func (q *Queue) ScheduledTotal() uint64 { return q.scheduled }

// Coalesced returns the number of trampoline events elided through
// ScheduleVia — fires the eager formulation would have executed that
// the deferred-schedule plane absorbed.
func (q *Queue) Coalesced() uint64 { return q.coalesced }

// push queues fn at (at, seq) in a pooled node, taking a slot from the
// free list and growing the arena only when no recycled slot is
// available.
func (q *Queue) push(at config.Time, seq uint64, fn Bound, env any, a, b int32) {
	q.scheduled++
	n := node{bfn: fn, env: env, a: a, b: b}
	var idx int32
	if k := len(q.free); k > 0 {
		idx = q.free[k-1]
		q.free = q.free[:k-1]
		q.nodes[idx] = n
	} else {
		idx = int32(len(q.nodes))
		q.nodes = append(q.nodes, n)
	}
	q.heapPush(entry{at: at, seq: seq, idx: idx})
}

// ScheduleBound queues a pre-bound callback: fn(at, env, a, b) runs at
// time at. env and the integer arguments are stored inline in the
// pooled node, so the call allocates nothing once the pool is warm.
// Scheduling in the past (before Now) panics: that is always a
// simulator bug, and silently clamping would corrupt causality.
func (q *Queue) ScheduleBound(at config.Time, fn Bound, env any, a, b int32) {
	if fn == nil {
		panic("event: nil handler")
	}
	if at < q.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", at, q.now))
	}
	q.push(at, q.bump(), fn, env, a, b)
}

// Seq is a same-instant ordering ticket. ReserveSeq allocates the next
// ticket without scheduling anything; ScheduleBoundSeq later turns the
// ticket into a real event that fires among same-instant events exactly
// where it would have fired had it been scheduled when the ticket was
// taken. This lets a caller elide an almost-always-no-op event while
// preserving the engine's deterministic same-instant FIFO order in the
// rare case the event turns out to be needed.
type Seq uint64

// ReserveSeq consumes and returns the next schedule-order ticket.
func (q *Queue) ReserveSeq() Seq {
	return Seq(q.bump())
}

// FiringSeq returns the sequence number of the event currently (or
// most recently) firing. A holder of a reserved ticket compares
// against it to learn whether the ticket's same-instant position has
// already been passed.
func (q *Queue) FiringSeq() uint64 { return q.firing }

// ScheduleBoundSeq schedules a pre-bound callback at time at, ordered
// among same-instant events by the reserved ticket rather than by the
// current schedule counter. Scheduling at the current instant is
// allowed only when the ticket's position has not yet been passed
// (seq greater than FiringSeq); the caller owns that guarantee — a
// ticket whose position already fired would be silently late.
func (q *Queue) ScheduleBoundSeq(at config.Time, seq Seq, fn Bound, env any, a, b int32) {
	if fn == nil {
		panic("event: nil handler")
	}
	if at < q.now {
		panic(fmt.Sprintf("event: reserved-seq scheduling at %v before now %v", at, q.now))
	}
	q.push(at, uint64(seq), fn, env, a, b)
}

// ScheduleVia is the deferred-schedule fast path: it is semantically
// identical to scheduling, at activateAt, a trampoline event whose
// only action is to schedule fn at fireAt — but the trampoline never
// enters the event heap and never fires. The call consumes one
// ordering ticket (the trampoline's schedule position); when queue
// processing reaches the activation position — after every event that
// precedes (activateAt, ticket) and before every event that follows
// it — the target is pushed with a fresh sequence number, exactly the
// number the eager trampoline's fire would have assigned. Same-instant
// FIFO order is therefore preserved bit-exactly while the trampoline's
// heap traffic, node, and callback dispatch disappear.
//
// The activation must not lie in the past. Deferred schedules cannot
// be cancelled; use a real event when cancellation is needed.
func (q *Queue) ScheduleVia(activateAt, fireAt config.Time, fn Bound, env any, a, b int32) {
	if fn == nil {
		panic("event: nil handler")
	}
	if activateAt < q.now {
		panic(fmt.Sprintf("event: deferred activation at %v before now %v", activateAt, q.now))
	}
	if fireAt < activateAt {
		panic(fmt.Sprintf("event: deferred fire at %v before activation %v", fireAt, activateAt))
	}
	seq := q.bump()
	q.coalesced++
	q.deferPush(deferred{activateAt: activateAt, seq: seq, fireAt: fireAt, bfn: fn, env: env, a: a, b: b})
}

// ScheduleViaSeq is ScheduleVia with the activation position supplied
// by a previously reserved ticket instead of a fresh one: the deferred
// schedule activates exactly where an event scheduled with that ticket
// would have fired, and the target then receives the next sequence
// number at that point in processing order — the number the elided
// event's own schedule call would have consumed. No ticket is taken at
// call time; the caller already reserved it.
func (q *Queue) ScheduleViaSeq(activateAt config.Time, seq Seq, fireAt config.Time, fn Bound, env any, a, b int32) {
	if fn == nil {
		panic("event: nil handler")
	}
	if activateAt < q.now {
		panic(fmt.Sprintf("event: deferred activation at %v before now %v", activateAt, q.now))
	}
	if fireAt < activateAt {
		panic(fmt.Sprintf("event: deferred fire at %v before activation %v", fireAt, activateAt))
	}
	q.coalesced++
	q.deferPush(deferred{activateAt: activateAt, seq: uint64(seq), fireAt: fireAt, bfn: fn, env: env, a: a, b: b})
}

// CancelDeferred removes the deferred schedule holding the given
// ticket before it materializes. It reports whether one was found; a
// ticket whose activation position has already been passed is gone
// from the plane and yields false.
func (q *Queue) CancelDeferred(seq Seq) bool {
	for i := range q.defers {
		if q.defers[i].seq == uint64(seq) {
			q.deferRemove(i)
			return true
		}
	}
	return false
}

// materializeDeferred pops the earliest deferred schedule and turns it
// into a real pending event, assigning the next sequence number — the
// one its trampoline's fire would have assigned at this exact point in
// processing order.
func (q *Queue) materializeDeferred() {
	d := q.deferPop()
	q.push(d.fireAt, q.bump(), d.bfn, d.env, d.a, d.b)
}

// settleDeferred materializes every deferred schedule whose activation
// position precedes the next pending event.
func (q *Queue) settleDeferred() {
	for len(q.defers) > 0 {
		if len(q.heap) > 0 && !deferredBefore(&q.defers[0], q.heap[0]) {
			break
		}
		q.materializeDeferred()
	}
}

// AfterBound queues a pre-bound callback d after the current time.
func (q *Queue) AfterBound(d config.Time, fn Bound, env any, a, b int32) {
	if d < 0 {
		panic(fmt.Sprintf("event: negative delay %v", d))
	}
	q.ScheduleBound(q.now+d, fn, env, a, b)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when no events remain. The node is
// recycled before the callback runs, so a callback scheduling a new
// event may reuse the slot.
func (q *Queue) Step() bool {
	// Inline settleDeferred's guard: the per-step common case (no
	// deferred schedule due) must not pay a function call.
	for len(q.defers) > 0 && (len(q.heap) == 0 || deferredBefore(&q.defers[0], q.heap[0])) {
		q.materializeDeferred()
	}
	if len(q.heap) == 0 {
		return false
	}
	e := q.popRoot()
	n := q.nodes[e.idx]
	// Drop the callback references so the pool retains nothing.
	q.nodes[e.idx] = node{}
	q.free = append(q.free, e.idx)
	q.now = e.at
	q.firing = e.seq
	q.fired++
	n.bfn(e.at, n.env, n.a, n.b)
	return true
}

// RunUntil executes events in order until the next event would fire
// after the deadline (or no events remain), then advances the clock to
// exactly the deadline. Events at the deadline itself do fire.
func (q *Queue) RunUntil(deadline config.Time) {
	if deadline < q.now {
		panic(fmt.Sprintf("event: RunUntil(%v) before now %v", deadline, q.now))
	}
	for {
		if len(q.heap) > 0 && q.heap[0].at <= deadline {
			q.Step()
			continue
		}
		// With no fireable event left, deferred schedules activating
		// within the deadline still migrate: their trampolines would
		// have fired by now, and the targets they produce may
		// themselves fire before the deadline.
		if len(q.defers) > 0 && q.defers[0].activateAt <= deadline {
			q.materializeDeferred()
			continue
		}
		break
	}
	q.now = deadline
}

// RunUntilExclusive executes events strictly preceding the position
// (t, bound) in global (time, seq) order: every pending event or
// deferred activation with at < t, or at == t and seq < bound, fires;
// everything at or after the position stays queued. The clock then
// advances to exactly t. A ShardSet uses this to drain each shard up
// to — but not past — a cross-shard event's reserved position before
// executing the cross-shard callback serially.
func (q *Queue) RunUntilExclusive(t config.Time, bound Seq) {
	if t < q.now {
		panic(fmt.Sprintf("event: RunUntilExclusive(%v) before now %v", t, q.now))
	}
	before := func(at config.Time, seq uint64) bool {
		return at < t || (at == t && seq < uint64(bound))
	}
	for {
		if len(q.heap) > 0 && before(q.heap[0].at, q.heap[0].seq) {
			q.Step()
			continue
		}
		if len(q.defers) > 0 && before(q.defers[0].activateAt, q.defers[0].seq) {
			q.materializeDeferred()
			continue
		}
		break
	}
	q.now = t
}

// NextAt returns the timestamp of the next event to fire and whether
// one exists. A deferred schedule counts at its fire time (its
// activation alone executes nothing observable).
func (q *Queue) NextAt() (config.Time, bool) {
	ok := len(q.heap) > 0
	at := config.Time(0)
	if ok {
		at = q.heap[0].at
	}
	for i := range q.defers {
		if f := q.defers[i].fireAt; !ok || f < at {
			at, ok = f, true
		}
	}
	return at, ok
}

// The heap is 4-ary: parent of i is (i-1)/4, children are 4i+1..4i+4.
// A wider node trades deeper comparisons per level for half the levels
// and better cache behaviour on the flat entry slice — the classic
// d-ary win for queues dominated by inserts that stay near the leaves.

// heapPush appends e and restores the heap property upward.
func (q *Queue) heapPush(e entry) {
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
}

// popRoot removes and returns the minimum entry.
func (q *Queue) popRoot() entry {
	root := q.heap[0]
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n] // entries hold no pointers; no need to zero
	if n > 0 {
		q.heap[0] = last
		q.siftDown(0)
	}
	return root
}

// The defers heap mirrors the main heap's 4-ary layout; entries are
// self-contained values, so sifting moves no node bookkeeping.

func (q *Queue) deferPush(d deferred) {
	q.defers = append(q.defers, d)
	h := q.defers
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !deferredLess(&d, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = d
}

func (q *Queue) deferPop() deferred {
	h := q.defers
	root := h[0]
	n := len(h) - 1
	d := h[n]
	h[n] = deferred{} // drop the callback/env references
	q.defers = h[:n]
	h = q.defers
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if deferredLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !deferredLess(&h[m], &d) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = d
	}
	return root
}

// deferRemove deletes the defers entry at heap position i.
func (q *Queue) deferRemove(i int) {
	h := q.defers
	n := len(h) - 1
	last := h[n]
	h[n] = deferred{}
	q.defers = h[:n]
	if i == n {
		return
	}
	h = q.defers
	h[i] = last
	// Restore the heap property in whichever direction the moved entry
	// violates it.
	q.deferSiftDown(i)
	if h[i].seq == last.seq && h[i].activateAt == last.activateAt {
		for i > 0 {
			p := (i - 1) / 4
			if !deferredLess(&h[i], &h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
}

func (q *Queue) deferSiftDown(i int) {
	h := q.defers
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if deferredLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !deferredLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func deferredLess(a, b *deferred) bool {
	if a.activateAt != b.activateAt {
		return a.activateAt < b.activateAt
	}
	return a.seq < b.seq
}

func (q *Queue) siftUp(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (q *Queue) siftDown(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
