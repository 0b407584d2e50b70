package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"memscale/internal/config"
	"memscale/internal/sim"
)

// digester hashes simulated statistics by their exact bits, so two runs
// agree only when every value is Float64bits-identical.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) f(vs ...float64) {
	for _, v := range vs {
		d.u(math.Float64bits(v))
	}
}

func (d *digester) u(vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.h.Write(buf[:])
	}
}

func (d *digester) s(v string) {
	d.u(uint64(len(v)))
	d.h.Write([]byte(v))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// result hashes a run's energies, per-core CPI and instructions,
// frequency residency, DRAM state residency and event count.
func (d *digester) result(r sim.Result) {
	m := r.Memory
	d.f(m.Background, m.ActPre, m.ReadWrite, m.Termination, m.Refresh, m.PLLReg, m.MC)
	d.f(r.NonMemEnergy, r.NonMemPower, r.DIMMAvgWatts, r.MemAvgWatts)
	d.u(uint64(r.Duration), r.Events)
	d.f(r.CPI...)
	d.f(r.Instructions...)
	d.freqTime(r.FreqTime)
	a := r.Residency
	d.u(uint64(a.ActiveStandby), uint64(a.PrechargeStandby), uint64(a.ActivePD),
		uint64(a.PrechargePD), uint64(a.PrechargePDSlow), uint64(a.Refreshing),
		a.Activations, a.Refreshes, a.PDExits,
		uint64(a.ReadBurst), uint64(a.WriteBurst), uint64(a.TermBurst))
}

func (d *digester) freqTime(ft map[config.FreqMHz]config.Time) {
	keys := make([]int, 0, len(ft))
	for f := range ft {
		keys = append(keys, int(f))
	}
	sort.Ints(keys)
	for _, f := range keys {
		d.u(uint64(f), uint64(ft[config.FreqMHz(f)]))
	}
}

func (d *digester) freqSeconds(fs map[int]float64) {
	keys := make([]int, 0, len(fs))
	for f := range fs {
		keys = append(keys, f)
	}
	sort.Ints(keys)
	for _, f := range keys {
		d.u(uint64(f))
		d.f(fs[f])
	}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
