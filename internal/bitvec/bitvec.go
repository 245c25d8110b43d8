// Package bitvec provides a dense, word-parallel bit-vector used throughout
// the Pinatubo simulator: applications build bitmaps with it, and the PIM
// functional model uses it as the golden reference for every in-memory
// bitwise operation.
//
// A Vector has a fixed length in bits. All bulk operations require operands
// of equal length; bits past the logical length inside the last word are
// kept zero at all times (the "tail invariant"), so popcounts and equality
// never see garbage.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
	"unsafe"
)

const (
	// WordBits is the number of bits per storage word.
	WordBits = 64
	wordMask = WordBits - 1
	wordLog  = 6
)

// Vector is a fixed-length dense bit vector.
type Vector struct {
	nbits int
	words []uint64
}

// WordsFor returns the number of 64-bit words needed to store nbits bits.
func WordsFor(nbits int) int {
	if nbits <= 0 {
		return 0
	}
	return (nbits + wordMask) >> wordLog
}

// New returns a zeroed Vector of nbits bits. It panics if nbits is negative.
func New(nbits int) *Vector {
	if nbits < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", nbits))
	}
	return &Vector{nbits: nbits, words: make([]uint64, WordsFor(nbits))}
}

// FromWords builds a Vector of nbits bits from the given words. The slice is
// copied; surplus tail bits are cleared to preserve the tail invariant.
func FromWords(nbits int, words []uint64) *Vector {
	v := New(nbits)
	copy(v.words, words)
	v.clearTail()
	return v
}

// tailWordMask returns the index of the word holding bit nbits-1 and the
// mask of the valid bits inside it, or ok=false when nbits lands exactly
// on a word boundary (no partial tail word).
func tailWordMask(nbits int) (idx int, mask uint64, ok bool) {
	if r := nbits & wordMask; r != 0 {
		return nbits >> wordLog, (uint64(1) << uint(r)) - 1, true
	}
	return 0, 0, false
}

// PopcountWords counts the set bits among the first nbits bits of a raw
// word slice, masking any garbage in the final partial word. It is the
// zero-alloc form of FromWords(nbits, words).Popcount() for hot paths
// that hold row words rather than Vectors (stored rows keep tail garbage;
// this never reads it).
func PopcountWords(words []uint64, nbits int) int {
	w := WordsFor(nbits)
	if w > len(words) {
		w = len(words)
	}
	n := 0
	for _, word := range words[:w] {
		n += bits.OnesCount64(word)
	}
	if idx, mask, ok := tailWordMask(nbits); ok && idx < w {
		n -= bits.OnesCount64(words[idx] &^ mask)
	}
	return n
}

// EqualWords reports whether the first nbits bits of two raw word slices
// agree, ignoring tail garbage past nbits. Both slices must cover nbits
// bits. Zero-alloc counterpart of comparing FromWords vectors.
func EqualWords(a, b []uint64, nbits int) bool {
	w := WordsFor(nbits)
	idx, mask, partial := tailWordMask(nbits)
	for i := 0; i < w; i++ {
		x := a[i] ^ b[i]
		if partial && i == idx {
			x &= mask
		}
		if x != 0 {
			return false
		}
	}
	return true
}

// DiffCount counts the bit positions within the first nbits bits where
// two raw word slices disagree — the zero-alloc XOR-fold the verified
// read path uses to count corrected bits.
func DiffCount(a, b []uint64, nbits int) int {
	w := WordsFor(nbits)
	idx, mask, partial := tailWordMask(nbits)
	n := 0
	for i := 0; i < w; i++ {
		x := a[i] ^ b[i]
		if partial && i == idx {
			x &= mask
		}
		n += bits.OnesCount64(x)
	}
	return n
}

// FromBits builds a Vector from a slice of booleans, one per bit.
func FromBits(bitvals []bool) *Vector {
	v := New(len(bitvals))
	for i, b := range bitvals {
		if b {
			v.Set(i)
		}
	}
	return v
}

// Len returns the logical length of the vector in bits.
func (v *Vector) Len() int { return v.nbits }

// Words returns the backing words. The last word's bits beyond Len() are
// guaranteed zero. The caller must not resize the slice; mutating bits is
// allowed but must preserve the tail invariant (prefer SetWord).
func (v *Vector) Words() []uint64 { return v.words }

// WordCount returns the number of backing words.
func (v *Vector) WordCount() int { return len(v.words) }

// SetWord stores w at word index i, clearing tail bits if i is the last word.
func (v *Vector) SetWord(i int, w uint64) {
	v.words[i] = w
	if i == len(v.words)-1 {
		v.clearTail()
	}
}

// Word returns word i.
func (v *Vector) Word(i int) uint64 { return v.words[i] }

func (v *Vector) clearTail() {
	if tail := uint(v.nbits) & wordMask; tail != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << tail) - 1
	}
}

// checkIndex panics if i is outside [0, nbits) — the API's index contract,
// like a slice bounds check.
func (v *Vector) checkIndex(i int) {
	if i < 0 || i >= v.nbits {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.nbits))
	}
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.checkIndex(i)
	v.words[i>>wordLog] |= 1 << (uint(i) & wordMask)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.checkIndex(i)
	v.words[i>>wordLog] &^= 1 << (uint(i) & wordMask)
}

// Flip toggles bit i.
func (v *Vector) Flip(i int) {
	v.checkIndex(i)
	v.words[i>>wordLog] ^= 1 << (uint(i) & wordMask)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.checkIndex(i)
	return v.words[i>>wordLog]&(1<<(uint(i)&wordMask)) != 0
}

// SetAll sets every bit to 1.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.clearTail()
}

// Reset clears every bit to 0.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	w := New(v.nbits)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with src. Lengths must match.
func (v *Vector) CopyFrom(src *Vector) {
	v.mustMatch(src)
	copy(v.words, src.words)
}

// mustMatch panics on an operand length mismatch — a caller bug, never a
// data condition.
func (v *Vector) mustMatch(o *Vector) {
	if v.nbits != o.nbits {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.nbits, o.nbits))
	}
}

// And stores a AND b into v. All three must have equal length; v may alias
// either operand.
func (v *Vector) And(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
}

// Or stores a OR b into v.
func (v *Vector) Or(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		v.words[i] = a.words[i] | b.words[i]
	}
}

// Xor stores a XOR b into v.
func (v *Vector) Xor(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		v.words[i] = a.words[i] ^ b.words[i]
	}
}

// AndNot stores a AND NOT b into v.
func (v *Vector) AndNot(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		v.words[i] = a.words[i] &^ b.words[i]
	}
}

// Not stores NOT a into v (within the logical length).
func (v *Vector) Not(a *Vector) {
	v.mustMatch(a)
	for i := range v.words {
		v.words[i] = ^a.words[i]
	}
	v.clearTail()
}

// OrAll stores the OR of all operands into v. It panics if operands is
// empty. This is the software analogue of Pinatubo's one-step n-row OR.
// v may be one of the operands; that case ORs through a scratch vector,
// because OrWordsInto forbids a destination that aliases a row.
func (v *Vector) OrAll(operands ...*Vector) {
	if len(operands) == 0 {
		panic("bitvec: OrAll needs at least one operand")
	}
	// Row headers live on the stack up to Pinatubo's 128-row OR depth, so
	// OrAll allocates nothing at any depth the hardware supports.
	var buf [128][]uint64
	rows := buf[:0]
	aliased := false
	for _, o := range operands {
		v.mustMatch(o)
		aliased = aliased || o == v
		rows = append(rows, o.words)
	}
	if !aliased {
		OrWordsInto(v.words, rows)
		return
	}
	tmp := make([]uint64, len(v.words))
	OrWordsInto(tmp, rows)
	copy(v.words, tmp)
}

// OrWordsInto stores the OR of the operand rows into dst: word j of dst
// becomes rows[0][j] | rows[1][j] | … for every j < len(dst). It is the
// host's one implementation of Pinatubo's n-row OR word math, shared by
// the sense-amplifier model, the controller's digital fold, the DRAM
// backend and OrAll.
//
// The loop is row-major and blocked four rows per pass: each pass streams
// four operand rows against dst, so dst is loaded and stored once per
// four rows, and every row is resliced to len(dst) up front so the inner
// loops carry no bounds checks. The first pass assigns the 1–4 leading
// rows, leaving a whole number of four-row blocks to accumulate. Eight
// rows per pass measured no faster than four on full rows, and would
// need twice the first-pass cases.
//
// Every row must hold at least len(dst) words, and dst must not share
// memory with any row (see Overlaps): a later pass would re-read an
// operand word that an earlier pass had overwritten, and the result would
// be silently wrong. Panics if rows is empty or a row is short — caller
// bugs, like a slice-bounds fault.
func OrWordsInto(dst []uint64, rows [][]uint64) {
	n := len(dst)
	k := (len(rows)-1)%4 + 1
	switch k {
	case 1:
		copy(dst, rows[0][:n])
	case 2:
		a, b := rows[0][:n], rows[1][:n]
		for j := range dst {
			dst[j] = a[j] | b[j]
		}
	case 3:
		a, b, c := rows[0][:n], rows[1][:n], rows[2][:n]
		for j := range dst {
			dst[j] = a[j] | b[j] | c[j]
		}
	case 4:
		a, b, c, d := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
		for j := range dst {
			dst[j] = a[j] | b[j] | c[j] | d[j]
		}
	default:
		panic("bitvec: OrWordsInto needs at least one row")
	}
	for i := k; i+4 <= len(rows); i += 4 {
		a, b, c, d := rows[i][:n], rows[i+1][:n], rows[i+2][:n], rows[i+3][:n]
		for j := range dst {
			dst[j] |= a[j] | b[j] | c[j] | d[j]
		}
	}
}

// Overlaps reports whether two word slices share any backing memory — the
// O(1) address-range check behind OrWordsInto's aliasing rule.
func Overlaps(a, b []uint64) bool {
	return len(a) > 0 && len(b) > 0 &&
		uintptr(unsafe.Pointer(&a[0])) <= uintptr(unsafe.Pointer(&b[len(b)-1])) &&
		uintptr(unsafe.Pointer(&b[0])) <= uintptr(unsafe.Pointer(&a[len(a)-1]))
}

// AndAll stores the AND of all operands into v. It panics if operands is
// empty.
func (v *Vector) AndAll(operands ...*Vector) {
	if len(operands) == 0 {
		panic("bitvec: AndAll needs at least one operand")
	}
	for _, o := range operands {
		v.mustMatch(o)
	}
	for i := range v.words {
		w := operands[0].words[i]
		for _, o := range operands[1:] {
			w &= o.words[i]
		}
		v.words[i] = w
	}
}

// Popcount returns the number of set bits.
func (v *Vector) Popcount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (v *Vector) None() bool { return !v.Any() }

// Equal reports whether v and o have identical length and contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.nbits != o.nbits {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.nbits {
		return -1
	}
	wi := i >> wordLog
	w := v.words[wi] >> (uint(i) & wordMask)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi<<wordLog + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// NextClear returns the index of the first clear bit at or after i, or -1
// if every bit in [i, Len) is set.
func (v *Vector) NextClear(i int) int {
	if i < 0 {
		i = 0
	}
	for ; i < v.nbits; i++ {
		wi := i >> wordLog
		w := ^v.words[wi] >> (uint(i) & wordMask)
		if w == 0 {
			i = (wi+1)<<wordLog - 1
			continue
		}
		j := i + bits.TrailingZeros64(w)
		if j >= v.nbits {
			return -1
		}
		return j
	}
	return -1
}

// ForEachSet calls fn for every set bit index, in ascending order.
func (v *Vector) ForEachSet(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			fn(wi<<wordLog + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// SetRange sets bits [lo, hi) to 1.
func (v *Vector) SetRange(lo, hi int) {
	v.rangeOp(lo, hi, func(i int, mask uint64) { v.words[i] |= mask })
}

// ClearRange sets bits [lo, hi) to 0.
func (v *Vector) ClearRange(lo, hi int) {
	v.rangeOp(lo, hi, func(i int, mask uint64) { v.words[i] &^= mask })
}

// rangeOp applies a masked word operation over bits [lo, hi). Panics on a
// bad range, mirroring slice-expression semantics.
func (v *Vector) rangeOp(lo, hi int, apply func(i int, mask uint64)) {
	if lo < 0 || hi > v.nbits || lo > hi {
		panic(fmt.Sprintf("bitvec: bad range [%d,%d) for length %d", lo, hi, v.nbits))
	}
	if lo == hi {
		return
	}
	loW, hiW := lo>>wordLog, (hi-1)>>wordLog
	loMask := ^uint64(0) << (uint(lo) & wordMask)
	hiMask := ^uint64(0) >> (wordMask - (uint(hi-1) & wordMask))
	if loW == hiW {
		apply(loW, loMask&hiMask)
		return
	}
	apply(loW, loMask)
	for i := loW + 1; i < hiW; i++ {
		apply(i, ^uint64(0))
	}
	apply(hiW, hiMask)
}

// CountRange returns the number of set bits in [lo, hi). Panics on a bad
// range, mirroring slice-expression semantics.
func (v *Vector) CountRange(lo, hi int) int {
	if lo < 0 || hi > v.nbits || lo > hi {
		panic(fmt.Sprintf("bitvec: bad range [%d,%d) for length %d", lo, hi, v.nbits))
	}
	n := 0
	for i := lo; i < hi; {
		wi := i >> wordLog
		w := v.words[wi]
		// Mask off bits below i.
		w >>= uint(i) & wordMask
		remaining := hi - i
		inWord := WordBits - int(uint(i)&wordMask)
		if remaining < inWord {
			w &= (uint64(1) << uint(remaining)) - 1
			inWord = remaining
		}
		n += bits.OnesCount64(w)
		i += inWord
	}
	return n
}

// String renders the vector as a 0/1 string, bit 0 first. Long vectors are
// truncated with an ellipsis; intended for debugging.
func (v *Vector) String() string {
	const limit = 128
	n := v.nbits
	trunc := false
	if n > limit {
		n, trunc = limit, true
	}
	var sb strings.Builder
	sb.Grow(n + 16)
	for i := 0; i < n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if trunc {
		fmt.Fprintf(&sb, "…(+%d bits)", v.nbits-limit)
	}
	return sb.String()
}
