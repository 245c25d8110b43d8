package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
)

// FuzzRangeOps: SetRange/ClearRange/CountRange stay mutually consistent
// and respect the tail invariant for arbitrary ranges.
func FuzzRangeOps(f *testing.F) {
	f.Add(uint16(100), uint16(5), uint16(50))
	f.Add(uint16(64), uint16(0), uint16(64))
	f.Add(uint16(1), uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, nSeed, loSeed, hiSeed uint16) {
		n := int(nSeed)%2000 + 1
		lo := int(loSeed) % (n + 1)
		hi := lo + int(hiSeed)%(n-lo+1)
		v := New(n)
		v.SetRange(lo, hi)
		if got := v.Popcount(); got != hi-lo {
			t.Fatalf("SetRange(%d,%d) popcount %d", lo, hi, got)
		}
		if got := v.CountRange(lo, hi); got != hi-lo {
			t.Fatalf("CountRange inside %d", got)
		}
		if lo > 0 && v.CountRange(0, lo) != 0 {
			t.Fatal("bits set below lo")
		}
		if hi < n && v.CountRange(hi, n) != 0 {
			t.Fatal("bits set above hi")
		}
		v.ClearRange(lo, hi)
		if v.Any() {
			t.Fatal("ClearRange left bits")
		}
		// Tail invariant must survive all of it.
		v.SetAll()
		if v.Popcount() != n {
			t.Fatal("tail invariant broken")
		}
	})
}

// FuzzNextSetClear: the scan primitives agree with bit-by-bit inspection.
func FuzzNextSetClear(f *testing.F) {
	f.Add([]byte{0xA5}, uint16(70))
	f.Add([]byte{0x00, 0xFF}, uint16(130))
	f.Fuzz(func(t *testing.T, data []byte, nSeed uint16) {
		n := int(nSeed)%1000 + 1
		v := New(n)
		for i := 0; i < n && len(data) > 0; i++ {
			if (data[i%len(data)]>>(uint(i)%8))&1 == 1 {
				v.Set(i)
			}
		}
		// NextSet from every position agrees with a linear scan.
		for start := 0; start < n; start += 1 + n/17 {
			want := -1
			for i := start; i < n; i++ {
				if v.Get(i) {
					want = i
					break
				}
			}
			if got := v.NextSet(start); got != want {
				t.Fatalf("NextSet(%d)=%d want %d", start, got, want)
			}
			wantC := -1
			for i := start; i < n; i++ {
				if !v.Get(i) {
					wantC = i
					break
				}
			}
			if got := v.NextClear(start); got != wantC {
				t.Fatalf("NextClear(%d)=%d want %d", start, got, wantC)
			}
		}
	})
}

// FuzzOrWordsInto: the row-major, four-row-blocked OR kernel agrees with
// a bit-at-a-time reference for every row count up to past the 128-row
// cap (so every remainder mod 4 takes the first pass) and for widths that
// end mid-block. Rows carry surplus words past len(dst) that must not
// leak in, and dst starts out holding garbage the kernel must overwrite.
func FuzzOrWordsInto(f *testing.F) {
	for _, n := range []uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 126, 127, 128, 129} {
		f.Add(n, uint16(n)*5+1, uint8(n%3), int64(n))
	}
	f.Add(uint8(127), uint16(0), uint8(2), int64(9))
	f.Add(uint8(3), uint16(517), uint8(0), int64(10))
	f.Fuzz(func(t *testing.T, nSeed uint8, wSeed uint16, extra uint8, seed int64) {
		n := int(nSeed)%130 + 1
		w := int(wSeed) % 600
		rng := rand.New(rand.NewSource(seed))
		// Sparse rows keep the OR from saturating: each bit is set with
		// probability 2^-k, about 1/n.
		k := bits.Len(uint(n))
		rows := make([][]uint64, n)
		for i := range rows {
			rows[i] = make([]uint64, w+int(extra%4))
			for j := range rows[i] {
				x := ^uint64(0)
				for b := 0; b < k; b++ {
					x &= rng.Uint64()
				}
				rows[i][j] = x
			}
		}
		dst := make([]uint64, w)
		for j := range dst {
			dst[j] = rng.Uint64()
		}
		OrWordsInto(dst, rows)
		for b := 0; b < w*WordBits; b++ {
			want := false
			for _, r := range rows {
				want = want || r[b/WordBits]>>(b%WordBits)&1 == 1
			}
			if got := dst[b/WordBits]>>(b%WordBits)&1 == 1; got != want {
				t.Fatalf("n=%d w=%d: bit %d = %v, want %v", n, w, b, got, want)
			}
		}
	})
}
