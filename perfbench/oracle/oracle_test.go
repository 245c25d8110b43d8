package oracle

import "testing"

func TestOpsAgainstBits(t *testing.T) {
	const nbits = 100
	a := []uint64{0xF0F0, 0xFFFF_FFFF_FFFF_FFFF}
	b := []uint64{0x0FF0, 0x1}
	dst := make([]uint64, 2)
	Or(dst, a, b)
	if dst[0] != 0xFFF0 || dst[1] != a[1] {
		t.Errorf("or = %x", dst)
	}
	And(dst, a, b)
	if dst[0] != 0x00F0 || dst[1] != 1 {
		t.Errorf("and = %x", dst)
	}
	Xor(dst, a, b)
	if dst[0] != 0xFF00 {
		t.Errorf("xor = %x", dst)
	}
	Not(dst, a, nbits)
	if dst[1] != 0 || dst[0] != ^uint64(0xF0F0) {
		t.Errorf("not = %x", dst)
	}
	if got := Popcount(a, nbits); got != 8+36 {
		t.Errorf("popcount = %d, want 44", got)
	}
}

func TestWrongBitsFlagsOneCorruptedBit(t *testing.T) {
	const nbits = 130
	want := []uint64{1, 2, 3}
	got := append([]uint64(nil), want...)
	if n := WrongBits(got, want, nbits); n != 0 {
		t.Fatalf("identical words: %d wrong bits", n)
	}
	got[1] ^= 1 << 17
	if n := WrongBits(got, want, nbits); n != 1 {
		t.Fatalf("one corrupted bit: %d wrong bits", n)
	}
	// Bits past nbits are not part of the vector.
	got[1] = want[1]
	got[2] ^= 1 << 40
	if n := WrongBits(got, want, nbits); n != 0 {
		t.Fatalf("tail bit counted: %d", n)
	}
	if n := WrongBits(got[:1], want, nbits); n == 0 {
		t.Fatal("short read not flagged")
	}
}

func TestOpsAllowDstAliasingASource(t *testing.T) {
	a := []uint64{0b1100}
	b := []uint64{0b1010}
	Or(b, a, b)
	if b[0] != 0b1110 {
		t.Errorf("or into its second source = %b", b[0])
	}
	b[0] = 0b1010
	Xor(b, a, b)
	if b[0] != 0b0110 {
		t.Errorf("xor into its second source = %b", b[0])
	}
}
