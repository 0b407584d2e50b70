package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"memscale/internal/config"
)

// fire adapts a plain callback to the bound form; each call builds a
// capturing closure, which is fine off the hot path.
func fire(f func(now config.Time)) Bound {
	return func(now config.Time, _ any, _, _ int32) { f(now) }
}

// drain steps q until no events remain.
func drain(q *Queue) {
	for q.Step() {
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var order []int32
	rec := Bound(func(_ config.Time, _ any, a, _ int32) { order = append(order, a) })
	for i := int32(0); i < 10; i++ {
		q.ScheduleBound(100, rec, nil, i, 0)
	}
	drain(&q)
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
	if q.Now() != 100 {
		t.Errorf("clock = %v, want 100", q.Now())
	}
}

func TestFIFOAtSameInstantAfterRecycling(t *testing.T) {
	// Same-instant FIFO must survive node recycling: burn slots through
	// the pool first, then check ordering on reused slots.
	var q Queue
	nop := Bound(func(config.Time, any, int32, int32) {})
	for i := 0; i < 32; i++ {
		q.ScheduleBound(config.Time(i), nop, nil, 0, 0)
	}
	drain(&q)
	if len(q.free) == 0 {
		t.Fatal("pool should hold recycled slots")
	}
	var order []int32
	rec := Bound(func(_ config.Time, _ any, a, _ int32) { order = append(order, a) })
	for i := int32(0); i < 16; i++ {
		q.ScheduleBound(1000, rec, nil, i, 0)
	}
	drain(&q)
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("recycled same-instant events out of order: %v", order)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue
	times := []config.Time{50, 10, 30, 20, 40, 10, 50}
	var fired []config.Time
	for _, at := range times {
		q.ScheduleBound(at, fire(func(now config.Time) { fired = append(fired, now) }), nil, 0, 0)
	}
	drain(&q)
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of time order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestPoolReuse(t *testing.T) {
	// A self-rescheduling chain must reach steady state with a pool no
	// larger than its concurrency (one pending event at a time): once
	// warm, whole chains run without allocating.
	var q Queue
	n := 0
	var tick Bound
	tick = func(now config.Time, _ any, _, _ int32) {
		n++
		if n%100 != 0 {
			q.ScheduleBound(now+1, tick, nil, 0, 0)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.ScheduleBound(q.Now(), tick, nil, 0, 0)
		drain(&q)
	})
	if n != 101*100 {
		t.Fatalf("fired %d, want %d", n, 101*100)
	}
	// Step releases the node before invoking the handler, so the chain
	// needs exactly one slot.
	if allocs != 0 || len(q.nodes) != 1 {
		t.Errorf("%v allocs per chain, pool of %d slots; want 0 and 1", allocs, len(q.nodes))
	}
}

func TestScheduleBound(t *testing.T) {
	var q Queue
	type env struct{ hits int }
	e := &env{}
	var got []int32
	fn := Bound(func(now config.Time, v any, a, b int32) {
		v.(*env).hits++
		got = append(got, a, b)
	})
	q.ScheduleBound(5, fn, e, 7, -3)
	q.AfterBound(10, fn, e, 1, 2)
	drain(&q)
	if e.hits != 2 {
		t.Fatalf("bound handler hits = %d, want 2", e.hits)
	}
	if len(got) != 4 || got[0] != 7 || got[1] != -3 || got[2] != 1 || got[3] != 2 {
		t.Fatalf("bound args = %v", got)
	}
	if q.Now() != 10 {
		t.Errorf("clock = %v, want 10", q.Now())
	}
}

func TestBoundAndClosureInterleave(t *testing.T) {
	// A shared pre-bound callback and capturing closures at the same
	// instant keep schedule order.
	var q Queue
	var order []int32
	shared := Bound(func(_ config.Time, _ any, a, _ int32) { order = append(order, a) })
	q.ScheduleBound(10, fire(func(config.Time) { order = append(order, 0) }), nil, 0, 0)
	q.ScheduleBound(10, shared, nil, 1, 0)
	q.ScheduleBound(10, fire(func(config.Time) { order = append(order, 2) }), nil, 0, 0)
	drain(&q)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("interleaved order = %v", order)
	}
}

func TestScheduleFromHandler(t *testing.T) {
	var q Queue
	var seen []config.Time
	q.ScheduleBound(10, fire(func(now config.Time) {
		seen = append(seen, now)
		q.AfterBound(5, fire(func(now config.Time) { seen = append(seen, now) }), nil, 0, 0)
	}), nil, 0, 0)
	drain(&q)
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 15 {
		t.Fatalf("nested scheduling: %v", seen)
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var fired []config.Time
	for _, at := range []config.Time{5, 10, 15, 20} {
		q.ScheduleBound(at, fire(func(now config.Time) { fired = append(fired, now) }), nil, 0, 0)
	}
	q.RunUntil(10)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(10) fired %d events, want 2 (inclusive)", len(fired))
	}
	if q.Now() != 10 {
		t.Errorf("clock = %v after RunUntil(10)", q.Now())
	}
	q.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired %d total, want 4", len(fired))
	}
	if q.Now() != 100 {
		t.Errorf("clock must land on the deadline, got %v", q.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var q Queue
	nop := Bound(func(config.Time, any, int32, int32) {})
	q.ScheduleBound(10, nop, nil, 0, 0)
	drain(&q)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past must panic")
		}
	}()
	q.ScheduleBound(5, nop, nil, 0, 0)
}

func TestNegativeAfterPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Error("negative After delay must panic")
		}
	}()
	q.AfterBound(-1, func(config.Time, any, int32, int32) {}, nil, 0, 0)
}

func TestNilHandlerPanics(t *testing.T) {
	for name, schedule := range map[string]func(q *Queue){
		"AfterBound":       func(q *Queue) { q.AfterBound(1, nil, nil, 0, 0) },
		"ScheduleBoundSeq": func(q *Queue) { q.ScheduleBoundSeq(1, q.ReserveSeq(), nil, nil, 0, 0) },
		"ScheduleVia":      func(q *Queue) { q.ScheduleVia(1, 2, nil, nil, 0, 0) },
		"ScheduleViaSeq":   func(q *Queue) { q.ScheduleViaSeq(1, q.ReserveSeq(), 2, nil, nil, 0, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("nil handler must panic")
				}
			}()
			schedule(&Queue{})
		})
	}
}

func TestNilBoundHandlerPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Error("nil bound handler must panic")
		}
	}()
	q.ScheduleBound(1, nil, nil, 0, 0)
}

func TestCounters(t *testing.T) {
	var q Queue
	nop := Bound(func(config.Time, any, int32, int32) {})
	for i := 0; i < 5; i++ {
		q.ScheduleBound(config.Time(i), nop, nil, 0, 0)
	}
	q.ScheduleVia(10, 20, nop, nil, 0, 0)
	withdrawn := q.ReserveSeq()
	q.ScheduleViaSeq(30, withdrawn, 40, nop, nil, 0, 0)
	if !q.CancelDeferred(withdrawn) {
		t.Fatal("CancelDeferred of a pending deferred schedule must report true")
	}
	drain(&q)
	if q.ScheduledTotal() != 6 {
		t.Errorf("ScheduledTotal = %d, want 6", q.ScheduledTotal())
	}
	if q.Fired() != 6 {
		t.Errorf("Fired = %d, want 6", q.Fired())
	}
	if q.Coalesced() != 2 {
		t.Errorf("Coalesced = %d, want 2", q.Coalesced())
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
}

func TestNextAt(t *testing.T) {
	var q Queue
	if _, ok := q.NextAt(); ok {
		t.Error("empty queue should have no next event")
	}
	q.ScheduleBound(42, func(config.Time, any, int32, int32) {}, nil, 0, 0)
	if at, ok := q.NextAt(); !ok || at != 42 {
		t.Errorf("NextAt = %v, %v", at, ok)
	}
}

// TestRandomizedOrdering is a property test: for any batch of events
// with random times, some scheduled through the deferred plane and
// some of those withdrawn, the survivors fire in nondecreasing time
// order and withdrawn schedules never fire.
func TestRandomizedOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		count := int(n%64) + 1
		withdrawn := make([]bool, count)
		firedAt := make([]config.Time, 0, count)
		rec := Bound(func(now config.Time, _ any, i, _ int32) {
			if withdrawn[i] {
				t.Errorf("withdrawn event fired at %v", now)
			}
			firedAt = append(firedAt, now)
		})
		var tickets []Seq
		var owners []int32
		for i := 0; i < count; i++ {
			at := config.Time(rng.Intn(1000))
			if rng.Intn(2) == 0 {
				q.ScheduleBound(at, rec, nil, int32(i), 0)
				continue
			}
			s := q.ReserveSeq()
			q.ScheduleViaSeq(at/2, s, at, rec, nil, int32(i), 0)
			tickets = append(tickets, s)
			owners = append(owners, int32(i))
		}
		survivors := count
		for k, s := range tickets {
			if rng.Intn(3) == 0 {
				withdrawn[owners[k]] = true
				q.CancelDeferred(s)
				survivors--
			}
		}
		if q.Len() != survivors {
			return false // withdrawal must shrink the queue
		}
		drain(&q)
		if len(firedAt) != survivors {
			return false
		}
		return sort.SliceIsSorted(firedAt, func(i, j int) bool { return firedAt[i] < firedAt[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	var q Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.ScheduleBound(q.Now()+config.Time(i%128), func(config.Time, any, int32, int32) {}, nil, 0, 0)
		if q.Len() > 1024 {
			for q.Len() > 512 {
				q.Step()
			}
		}
	}
	drain(&q)
}

// BenchmarkEventQueue is the zero-allocation reference: a warmed pool
// driven entirely through the bound form must schedule and fire with 0
// allocs/op. The pending set cycles between 512 and 1024 events, far
// above what the simulator holds, so it is the large-set stress case.
func BenchmarkEventQueue(b *testing.B) { benchEventQueue(b, 512, 1024) }

// BenchmarkEventQueuePending32 is the same loop at the simulator's
// pending-set size: a paper-grid MEM1 run holds about 30 pending
// events (at most 40), so the set cycles between 24 and 40.
func BenchmarkEventQueuePending32(b *testing.B) { benchEventQueue(b, 24, 40) }

// benchEventQueue schedules one event per op at a delay of 0-127 ps and,
// whenever more than hi events are pending, fires down to lo.
func benchEventQueue(b *testing.B, lo, hi int) {
	var q Queue
	fn := Bound(func(config.Time, any, int32, int32) {})
	// Warm the pool and the pending slice.
	for i := 0; i < hi; i++ {
		q.ScheduleBound(q.Now()+config.Time(i%128), fn, nil, 0, 0)
	}
	for q.Len() > lo {
		q.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ScheduleBound(q.Now()+config.Time(i%128), fn, nil, int32(i), 0)
		if q.Len() > hi {
			for q.Len() > lo {
				q.Step()
			}
		}
	}
	b.StopTimer()
	drain(&q)
}
