package event

import (
	"encoding/json"
	"slices"
	"testing"

	"memscale/internal/config"
)

// FuzzSaveLoad drives a one-shard set with an arbitrary program of
// ScheduleBound, ReserveSeq, ScheduleBoundSeq, ScheduleVia,
// ScheduleViaSeq, CancelDeferred and Step operations decoded from the
// fuzz input. Partway through, it saves the set, round-trips the image
// through JSON and loads it into fresh sets of 1 and 2 shards, keyed on
// each event's a argument. Every copy then runs the rest of the program
// beside the uninterrupted set: the one-shard copy must fire exactly
// the same (now, a, b) sequence, each shard of the two-shard copy the
// subsequence it owns, and all must agree on Fired, ScheduledTotal,
// Coalesced and every CancelDeferred outcome.
func FuzzSaveLoad(f *testing.F) {
	f.Add([]byte{3, 0, 10, 1, 0, 3, 20, 2, 5, 6, 0, 6, 0})
	f.Add([]byte{5, 0, 5, 0, 5, 1, 0, 4, 9, 5, 0, 6, 0, 0, 5, 6, 0, 5, 0})
	f.Add([]byte{2, 3, 0, 0, 0, 6, 0, 1, 0, 1, 0, 2, 0, 4, 7, 6, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ops := data[1:]
		cut := 2 * (int(data[0]) % (len(ops)/2 + 1))

		ref := newFuzzRun(1)
		for i := 0; i < cut; i += 2 {
			// Before the cut the one-shard set steps event by event, so
			// the save can land between same-instant events.
			ref.apply(i/2, ops[i], ops[i+1], func() { ref.set.Shard(0).Step() })
		}
		st, err := ref.set.Save(ref.reg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		runs := []*fuzzRun{ref}
		for _, n := range []int{1, 2} {
			var back State
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			r := newFuzzRun(n)
			if err := r.set.Load(&back, r.reg, r.shardOf); err != nil {
				t.Fatalf("load into %d shards: %v", n, err)
			}
			r.tickets = append([]fuzzTicket(nil), ref.tickets...)
			r.vias = append([]fuzzTicket(nil), ref.vias...)
			runs = append(runs, r)
		}
		firesBefore, cancelsBefore := len(ref.fires[0]), len(ref.cancels)
		for i := cut; i+1 < len(ops); i += 2 {
			for _, r := range runs {
				r.apply(i/2, ops[i], ops[i+1], r.stepInstant)
			}
		}
		for _, r := range runs {
			for r.set.Len() > 0 {
				r.stepInstant()
			}
		}

		want := ref.fires[0][firesBefore:]
		for _, r := range runs[1:] {
			n := r.set.Shards()
			for j := 0; j < n; j++ {
				var own []fuzzFire
				for _, f := range want {
					if int(f.a)%n == j {
						own = append(own, f)
					}
				}
				if !slices.Equal(own, r.fires[j]) {
					t.Fatalf("%d shards: shard %d fired\n%v\nwant\n%v", n, j, r.fires[j], own)
				}
			}
			if !slices.Equal(r.cancels, ref.cancels[cancelsBefore:]) {
				t.Fatalf("%d shards: CancelDeferred outcomes %v, uninterrupted %v", n, r.cancels, ref.cancels)
			}
			if r.set.Fired() != ref.set.Fired() || r.set.ScheduledTotal() != ref.set.ScheduledTotal() ||
				r.set.Coalesced() != ref.set.Coalesced() || r.set.Now() != ref.set.Now() {
				t.Fatalf("%d shards: fired/scheduled/coalesced/now %d/%d/%d/%v, uninterrupted %d/%d/%d/%v", n,
					r.set.Fired(), r.set.ScheduledTotal(), r.set.Coalesced(), r.set.Now(),
					ref.set.Fired(), ref.set.ScheduledTotal(), ref.set.Coalesced(), ref.set.Now())
			}
		}
	})
}

type fuzzFire struct {
	now  config.Time
	a, b int32
}

// fuzzTicket is a reserved ordering ticket and the a argument of the
// event that will use it, which names the ticket's shard.
type fuzzTicket struct {
	seq Seq
	a   int32
}

// fuzzRun is one shard set under a fuzz program: the fires each shard
// recorded, the tickets the program reserved but has not used, the
// ScheduleViaSeq tickets it may withdraw, and CancelDeferred outcomes.
type fuzzRun struct {
	set     *ShardSet
	reg     *Registry
	fires   [][]fuzzFire
	tickets []fuzzTicket
	vias    []fuzzTicket
	cancels []bool
}

// fuzzRecord is the program's only callback. It appends to the firing
// shard's own slice, so concurrent shards never share one.
func fuzzRecord(now config.Time, env any, a, b int32) {
	r := env.(*fuzzRun)
	j := int(a) % len(r.fires)
	r.fires[j] = append(r.fires[j], fuzzFire{now, a, b})
}

func newFuzzRun(n int) *fuzzRun {
	r := &fuzzRun{set: NewShardSet(n), reg: NewRegistry(), fires: make([][]fuzzFire, n)}
	r.reg.RegisterBound("fuzz.record", fuzzRecord,
		func(any) (int32, error) { return 0, nil },
		func(int32) (Bound, any, error) { return fuzzRecord, r, nil })
	return r
}

func (r *fuzzRun) shardOf(_ string, _, a, _ int32) (int, error) { return int(a) % r.set.Shards(), nil }

func (r *fuzzRun) queue(a int32) *Queue { return r.set.Shard(int(a) % r.set.Shards()) }

// stepInstant runs the set through its next pending instant.
func (r *fuzzRun) stepInstant() {
	if at, ok := r.set.NextAt(); ok {
		r.set.RunUntil(at)
	}
}

// apply performs the i-th program operation; step carries out a Step.
func (r *fuzzRun) apply(i int, op, arg byte, step func()) {
	a, b := int32(i), int32(arg)
	d := config.Time(arg)
	now := r.set.Now()
	switch op % 7 {
	case 0:
		r.queue(a).ScheduleBound(now+d, fuzzRecord, r, a, b)
	case 1:
		r.tickets = append(r.tickets, fuzzTicket{r.queue(a).ReserveSeq(), a})
	case 2:
		if len(r.tickets) > 0 {
			tk := r.tickets[0]
			r.tickets = r.tickets[1:]
			r.queue(tk.a).ScheduleBoundSeq(now+d, tk.seq, fuzzRecord, r, tk.a, b)
		}
	case 3:
		r.queue(a).ScheduleVia(now+d/2, now+d, fuzzRecord, r, a, b)
	case 4:
		if len(r.tickets) > 0 {
			tk := r.tickets[0]
			r.tickets = r.tickets[1:]
			r.queue(tk.a).ScheduleViaSeq(now+d/2, tk.seq, now+d, fuzzRecord, r, tk.a, b)
			r.vias = append(r.vias, tk)
		}
	case 5:
		if len(r.vias) > 0 {
			tk := r.vias[int(arg)%len(r.vias)]
			r.cancels = append(r.cancels, r.queue(tk.a).CancelDeferred(tk.seq))
		}
	case 6:
		step()
	}
}
