package bitvec

import (
	"math/rand"
	"testing"
)

// The raw-word helpers (PopcountWords, EqualWords, DiffCount) exist so
// the system hot path can work on row buffers whose tail words carry
// garbage past nbits — no Vector wrapping, no allocation. These tests
// pin both properties: tail garbage is ignored, and the helpers are
// allocation-free.

// garble copies words and scribbles junk into the bits past nbits.
func garble(words []uint64, nbits int) []uint64 {
	out := append([]uint64(nil), words...)
	if idx, mask, ok := tailWordMask(nbits); ok {
		out[idx] |= ^mask
	}
	return out
}

func randVec(nbits int, seed int64) *Vector {
	rng := rand.New(rand.NewSource(seed))
	v := New(nbits)
	for i := 0; i < v.WordCount(); i++ {
		v.SetWord(i, rng.Uint64())
	}
	return v
}

func TestPopcountWordsIgnoresTail(t *testing.T) {
	for _, nbits := range []int{1, 63, 64, 65, 300, 4096} {
		v := randVec(nbits, int64(nbits))
		dirty := garble(v.Words(), nbits)
		if got, want := PopcountWords(dirty, nbits), v.Popcount(); got != want {
			t.Errorf("nbits=%d: PopcountWords=%d want %d", nbits, got, want)
		}
	}
}

func TestEqualWordsIgnoresTail(t *testing.T) {
	for _, nbits := range []int{1, 63, 64, 65, 300} {
		v := randVec(nbits, int64(nbits))
		dirty := garble(v.Words(), nbits)
		if !EqualWords(v.Words(), dirty, nbits) {
			t.Errorf("nbits=%d: tail garbage broke EqualWords", nbits)
		}
		if nbits > 0 {
			flipped := append([]uint64(nil), dirty...)
			flipped[0] ^= 1
			if EqualWords(v.Words(), flipped, nbits) {
				t.Errorf("nbits=%d: EqualWords missed an in-range flip", nbits)
			}
		}
	}
}

func TestDiffCountMatchesXorPopcount(t *testing.T) {
	for _, nbits := range []int{1, 63, 64, 65, 300, 4096} {
		a := randVec(nbits, int64(nbits))
		b := randVec(nbits, int64(nbits)+1000)
		ref := New(nbits)
		ref.Xor(a, b)
		want := ref.Popcount()
		got := DiffCount(garble(a.Words(), nbits), garble(b.Words(), nbits), nbits)
		if got != want {
			t.Errorf("nbits=%d: DiffCount=%d want %d", nbits, got, want)
		}
		if d := DiffCount(garble(a.Words(), nbits), a.Words(), nbits); d != 0 {
			t.Errorf("nbits=%d: DiffCount of identical payloads = %d", nbits, d)
		}
	}
}

func TestWordHelpersZeroAllocs(t *testing.T) {
	a := randVec(4096, 1).Words()
	b := randVec(4096, 2).Words()
	allocs := testing.AllocsPerRun(100, func() {
		_ = PopcountWords(a, 4096)
		_ = EqualWords(a, b, 4096)
		_ = DiffCount(a, b, 4096)
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op across the word helpers, want 0", allocs)
	}
	// Every path through the OR kernel: each first-pass width (1-4 rows),
	// one accumulate block (5), and the 128-row cap.
	rows := make([][]uint64, 128)
	vecs := make([]*Vector, 128)
	for i := range rows {
		vecs[i] = randVec(4096, int64(i))
		rows[i] = vecs[i].Words()
	}
	dst := New(4096)
	for _, n := range []int{1, 2, 3, 4, 5, 128} {
		allocs := testing.AllocsPerRun(100, func() {
			OrWordsInto(dst.Words(), rows[:n])
		})
		if allocs != 0 {
			t.Errorf("OrWordsInto x%d: %v allocs/op, want 0", n, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			dst.OrAll(vecs[:n]...)
		})
		if allocs != 0 {
			t.Errorf("OrAll x%d: %v allocs/op, want 0", n, allocs)
		}
	}
}

func TestOverlaps(t *testing.T) {
	a := make([]uint64, 16)
	b := make([]uint64, 16)
	cases := []struct {
		name string
		x, y []uint64
		want bool
	}{
		{"same slice", a, a, true},
		{"shifted window", a[:8], a[7:], true},
		{"inside", a[2:4], a, true},
		{"adjacent halves", a[:8], a[8:], false},
		{"distinct arrays", a, b, false},
		{"empty", a[:0], a, false},
	}
	for _, c := range cases {
		if got := Overlaps(c.x, c.y); got != c.want {
			t.Errorf("%s: Overlaps = %v, want %v", c.name, got, c.want)
		}
		if got := Overlaps(c.y, c.x); got != c.want {
			t.Errorf("%s (swapped): Overlaps = %v, want %v", c.name, got, c.want)
		}
	}
}

// OrAll may name its destination among the operands: the OR then folds
// through scratch instead of tripping OrWordsInto's aliasing rule.
func TestOrAllDestinationAsOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := make([]*Vector, 9)
	for i := range ops {
		ops[i] = randomVector(rng, 700)
	}
	want := New(700)
	want.OrAll(ops...)
	v := ops[6].Clone()
	ops[6] = v
	v.OrAll(ops...)
	if !v.Equal(want) {
		t.Fatal("OrAll with the destination as operand 6 gave a different OR")
	}
}
