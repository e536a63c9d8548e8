package tech

import (
	"encoding/binary"
	"math"
)

// AppendKey appends a canonical binary encoding of every field of the
// library, unexported ones included, to b and returns the extended
// slice. Content-addressed caches key on it: two libraries encode alike
// exactly when their fields are equal. Integers are fixed-width little
// endian, floats raw IEEE-754 bits, strings and slices length-prefixed,
// and each Resource.Cycles map is its length followed by its entries in
// OpClass order.
func (l *Library) AppendKey(b []byte) []byte {
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	i := func(v int) { u(uint64(int64(v))) }
	f := func(v float64) { u(math.Float64bits(v)) }
	s := func(v string) {
		u(uint64(len(v)))
		b = append(b, v...)
	}
	kinds := func(ks []ResourceKind) {
		u(uint64(len(ks)))
		for _, k := range ks {
			i(int(k))
		}
	}
	flag := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}

	s(l.Name)
	for k := range l.resources {
		r := &l.resources[k]
		i(int(r.Kind))
		s(r.Name)
		i(r.GEQ)
		f(float64(r.PavActive))
		f(float64(r.PavIdle))
		f(float64(r.Tcyc))
		u(uint64(len(r.Cycles)))
		for c := OpClass(0); c < NumOpClasses; c++ {
			if n, ok := r.Cycles[c]; ok {
				i(int(c))
				i(n)
			}
		}
	}

	m := &l.Micro
	s(m.Name)
	f(float64(m.ClockPeriod))
	for _, e := range m.BaseEnergy {
		f(float64(e))
	}
	for _, row := range m.CSOverhead {
		for _, e := range row {
			f(float64(e))
		}
	}
	for _, n := range m.CyclesFor {
		i(n)
	}
	for _, ks := range m.Uses {
		kinds(ks)
	}
	for _, n := range m.CoreResources {
		i(n)
	}
	flag(m.GatedClocks)

	f(float64(l.Cache.EDecodePerSetLog2))
	f(float64(l.Cache.ETagBit))
	f(float64(l.Cache.EDataBit))
	f(float64(l.Cache.EOutputPerWord))
	f(float64(l.Memory.EReadWord))
	f(float64(l.Memory.EWriteWord))
	i(l.Memory.LatencyCycles)
	f(float64(l.Bus.EReadWord))
	f(float64(l.Bus.EWriteWord))
	i(l.ControllerGEQPerStep)
	i(l.RegisterGEQPerWord)
	f(float64(l.ERegisterPerCycle))
	f(float64(l.EControllerPerCycle))
	f(float64(l.EBufferAccess))
	f(float64(l.WireDelayPerLog2))
	i(l.WireGEQRef)
	for _, ks := range l.executors {
		kinds(ks)
	}
	return b
}
