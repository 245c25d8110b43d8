package sense

import (
	"strings"
	"testing"

	"pinatubo/internal/analog"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
)

// Full-row tests and benchmarks for the word kernels. A full row is
// memarch.Default().RowWords() words (64 KiB): far past L1, so these are
// the shapes where the kernel's memory behaviour shows.

var rowWords = memarch.Default().RowWords()

// referenceWords is the word-major formula for each op: every output word
// folded from every row in turn, independent of the blocked OR kernel.
func referenceWords(op Op, rows [][]uint64) []uint64 {
	out := make([]uint64, len(rows[0]))
	for i := range out {
		switch op {
		case OpRead:
			out[i] = rows[0][i]
		case OpINV:
			out[i] = ^rows[0][i]
		case OpAND:
			out[i] = rows[0][i] & rows[1][i]
		case OpXOR:
			out[i] = rows[0][i] ^ rows[1][i]
		case OpOR:
			w := rows[0][i]
			for _, r := range rows[1:] {
				w |= r[i]
			}
			out[i] = w
		}
	}
	return out
}

func TestComputeWordsMatchesReferenceFullRow(t *testing.T) {
	a := newPCM(t)
	rows := randRows(128, rowWords, 21)
	cases := []struct {
		op Op
		n  int
	}{
		{OpRead, 1}, {OpINV, 1}, {OpAND, 2}, {OpXOR, 2},
		{OpOR, 2}, {OpOR, 3}, {OpOR, 4}, {OpOR, 5}, {OpOR, 16}, {OpOR, 127}, {OpOR, 128},
	}
	dst := make([]uint64, rowWords)
	for _, c := range cases {
		in := rows[:c.n]
		if err := a.ComputeWordsInto(dst, c.op, in); err != nil {
			t.Fatalf("%v x%d: %v", c.op, c.n, err)
		}
		want := referenceWords(c.op, in)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("%v x%d: word %d = %#x, want %#x", c.op, c.n, i, dst[i], want[i])
			}
		}
	}
}

// The OR kernel accumulates row-major, so a destination that aliases an
// operand would be re-read after it was overwritten. ComputeWordsInto
// refuses it rather than return wrong bits.
func TestComputeWordsIntoRejectsAliasedDst(t *testing.T) {
	a := newPCM(t)
	rows := randRows(8, 32, 23)
	backing := make([]uint64, 64)
	shifted := backing[16:48] // overlaps the aliased row below without sharing its start
	cases := []struct {
		name string
		op   Op
		rows [][]uint64
		dst  []uint64
	}{
		{"or dst is row 5", OpOR, append(append([][]uint64{}, rows[:5]...), backing[:32]), backing[:32]},
		{"or dst overlaps row 6", OpOR, append(append([][]uint64{}, rows[:6]...), backing[:32]), shifted},
		{"xor dst is row 0", OpXOR, [][]uint64{rows[0], rows[1]}, rows[0]},
		{"inv in place", OpINV, [][]uint64{rows[2]}, rows[2]},
	}
	for _, c := range cases {
		err := a.ComputeWordsInto(c.dst, c.op, c.rows)
		if err == nil || !strings.Contains(err.Error(), "overlaps operand row") {
			t.Errorf("%s: err = %v, want an overlap error", c.name, err)
		}
	}
	// Disjoint halves of one backing array are fine.
	if err := a.ComputeWordsInto(backing[32:], OpOR, [][]uint64{backing[:32], rows[0]}); err != nil {
		t.Errorf("disjoint slices of one array rejected: %v", err)
	}
}

// Reset must rewind the sampling stream to its NewArray state, so a pooled
// sandbox samples exactly what a fresh one would.
func TestResetRewindsSampling(t *testing.T) {
	a := newPCM(t)
	draw := func() []int {
		out := make([]int, 8)
		for i := range out {
			out[i] = a.rng.IntN(1 << 20)
		}
		return out
	}
	first := draw()
	a.Reset()
	again := draw()
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("draw %d after Reset = %d, want %d", i, again[i], first[i])
		}
	}
}

func benchComputeOR(b *testing.B, n int) {
	a, err := NewArray(nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), 0)
	if err != nil {
		b.Fatal(err)
	}
	rows := randRows(n, rowWords, 1)
	dst := make([]uint64, rowWords)
	b.SetBytes(int64(n * rowWords * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ComputeWordsInto(dst, OpOR, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCopy is the roofline for benchComputeOR: a copy() of the same
// number of operand bytes, each counted once.
func benchCopy(b *testing.B, n int) {
	src := make([]uint64, n*rowWords)
	dst := make([]uint64, n*rowWords)
	b.SetBytes(int64(len(src) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}

func BenchmarkComputeOR128xRow(b *testing.B)    { benchComputeOR(b, 128) }
func BenchmarkComputeOR16xRow(b *testing.B)     { benchComputeOR(b, 16) }
func BenchmarkCopyRoofline128xRow(b *testing.B) { benchCopy(b, 128) }
func BenchmarkCopyRoofline16xRow(b *testing.B)  { benchCopy(b, 16) }
