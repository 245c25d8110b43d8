// Package oracle is the benchmark's host reference model: plain word-slice
// bit-vector operations, independent of the simulator's own kernels, that
// mirror every vector the benchmark writes and predict every result it
// reads back.
package oracle

import "math/bits"

// Or sets dst to the OR of srcs; dst may be one of them.
func Or(dst []uint64, srcs ...[]uint64) {
	for i := range dst {
		var w uint64
		for _, s := range srcs {
			w |= s[i]
		}
		dst[i] = w
	}
}

// And sets dst = a & b. Like every op here, it is safe when dst
// aliases an operand.
func And(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// Xor sets dst = a ^ b.
func Xor(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// Not sets dst = ^a, clearing the bits past nbits.
func Not(dst, a []uint64, nbits int) {
	for i := range dst {
		dst[i] = ^a[i]
	}
	Mask(dst, nbits)
}

// Mask clears every bit at or past nbits.
func Mask(words []uint64, nbits int) {
	for i := range words {
		lo := i * 64
		switch {
		case lo >= nbits:
			words[i] = 0
		case lo+64 > nbits:
			words[i] &= (1 << uint(nbits-lo)) - 1
		}
	}
}

// Popcount counts the set bits among the first nbits.
func Popcount(words []uint64, nbits int) int {
	n := 0
	for i, w := range words {
		lo := i * 64
		if lo >= nbits {
			break
		}
		if lo+64 > nbits {
			w &= (1 << uint(nbits-lo)) - 1
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// WrongBits counts the positions among the first nbits where got and
// want differ; a short got counts its missing words as wrong.
func WrongBits(got, want []uint64, nbits int) int {
	n := 0
	for i := range want {
		lo := i * 64
		if lo >= nbits {
			break
		}
		var g uint64
		if i < len(got) {
			g = got[i]
		}
		d := g ^ want[i]
		if lo+64 > nbits {
			d &= (1 << uint(nbits-lo)) - 1
		}
		n += bits.OnesCount64(d)
	}
	return n
}
