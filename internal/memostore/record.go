package memostore

import (
	"encoding/binary"
	"math"
)

// Enc builds a record value from fixed-width little-endian fields.
// Floats are stored as raw IEEE-754 bit patterns, so a decoded record
// reproduces them bit for bit.
type Enc struct{ B []byte }

// U64 appends an unsigned field.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// I64 appends a signed field.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float's bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Raw appends bytes whose length the reader knows.
func (e *Enc) Raw(b []byte) { e.B = append(e.B, b...) }

// Dec reads the fields Enc wrote. A read past the end (or a length
// prefix longer than what is left) sets Bad and yields zero values from
// then on, so a decoder reads a whole record and checks Bad once.
type Dec struct {
	B   []byte
	off int
	Bad bool
}

// U64 reads an unsigned field.
func (d *Dec) U64() uint64 {
	if d.Bad || d.off+8 > len(d.B) {
		d.Bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.B[d.off:])
	d.off += 8
	return v
}

// I64 reads a signed field.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float's bit pattern. Every float a record holds is a
// finite measurement, so a NaN or an infinity is corrupt and sets Bad.
func (d *Dec) F64() float64 {
	v := math.Float64frombits(d.U64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.Bad = true
		return 0
	}
	return v
}

// Len reads a count of elements that each take at least one byte, so a
// count larger than the whole record is corrupt (and would otherwise
// size an allocation from untrusted bytes).
func (d *Dec) Len() int {
	n := d.U64()
	if d.Bad || n > uint64(len(d.B)) {
		d.Bad = true
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.U64()
	if d.Bad || n > uint64(len(d.B)-d.off) {
		d.Bad = true
		return ""
	}
	s := string(d.B[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Raw fills dst with the next len(dst) bytes.
func (d *Dec) Raw(dst []byte) {
	if d.Bad || len(dst) > len(d.B)-d.off {
		d.Bad = true
		return
	}
	d.off += copy(dst, d.B[d.off:])
}
