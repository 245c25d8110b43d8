// Package gen makes every benchmark input from the workload seed: vector
// contents, the closed-loop op streams and the open-loop request
// schedule. The program under test receives only what these produce, so
// the same seed always yields the same inputs.
package gen

import (
	"hash/fnv"
	"math/rand"
	"time"
)

// Kind is one operation of a generated stream.
type Kind int

const (
	Or Kind = iota
	And
	Xor
	Not
	Popcount
	Read
)

// String is the wire spelling pinatubod accepts for op kinds.
func (k Kind) String() string {
	switch k {
	case Or:
		return "or"
	case And:
		return "and"
	case Xor:
		return "xor"
	case Not:
		return "not"
	case Popcount:
		return "popcount"
	case Read:
		return "read"
	default:
		return "unknown"
	}
}

// Op is Dst = Kind(Srcs...), naming vectors by index. Popcount counts Dst
// and has no sources; Read loads Dst.
type Op struct {
	Kind Kind
	Dst  int
	Srcs []int
}

// Rand returns the generator for one named input stream of a seed, so
// that adding a stream never shifts the values of another.
func Rand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// Words returns n uniformly random words.
func Words(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// SparseWords returns n words with each bit set with probability 2^-k,
// so that a deep OR of many such vectors is not trivially all ones.
func SparseWords(rng *rand.Rand, n, k int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		x := ^uint64(0)
		for j := 0; j < k; j++ {
			x &= rng.Uint64()
		}
		w[i] = x
	}
	return w
}

// deck deals op classes in shuffled decks holding each class exactly
// its count times, so every stretch of a stream has the stated mix: the
// seed changes the order, not the proportions (which would otherwise move
// the throughput from seed to seed).
type deck struct {
	rng    *rand.Rand
	counts []int
	cards  []int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	return &deck{rng: rng, counts: counts}
}

func (d *deck) next() int {
	if len(d.cards) == 0 {
		for class, n := range d.counts {
			for i := 0; i < n; i++ {
				d.cards = append(d.cards, class)
			}
		}
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// distinct returns k distinct values from [0, n).
func distinct(rng *rand.Rand, n, k int) []int {
	return rng.Perm(n)[:k]
}

// Apply-deep vector layout: sources first, then destinations.
const (
	ApplySources = 128
	ApplyDsts    = 8
)

// ApplyStream is apply-deep's op stream: a fixed set of op templates over
// a fixed operand set, drawn by weight — mostly 128-row and 16-row ORs,
// with some 2-row AND/XOR, NOT and popcount. Repeating templates keep
// the program cache warm.
type ApplyStream struct {
	rng     *rand.Rand
	classes [][]Op
	deck    *deck
}

// NewApplyStream builds the templates and the draw sequence from seed.
func NewApplyStream(seed int64) *ApplyStream {
	rng := Rand(seed, "apply-deep/ops")
	dst := func() int { return ApplySources + rng.Intn(ApplyDsts) }
	var or128, or16, and, xor, not, pop []Op
	for i := 0; i < 4; i++ {
		or128 = append(or128, Op{Kind: Or, Dst: ApplySources + i, Srcs: rng.Perm(ApplySources)})
	}
	for i := 0; i < 8; i++ {
		or16 = append(or16, Op{Kind: Or, Dst: ApplySources + 4 + i%4, Srcs: distinct(rng, ApplySources, 16)})
	}
	for i := 0; i < 4; i++ {
		and = append(and, Op{Kind: And, Dst: dst(), Srcs: distinct(rng, ApplySources, 2)})
		xor = append(xor, Op{Kind: Xor, Dst: dst(), Srcs: distinct(rng, ApplySources, 2)})
		not = append(not, Op{Kind: Not, Dst: dst(), Srcs: distinct(rng, ApplySources, 1)})
		pop = append(pop, Op{Kind: Popcount, Dst: dst()})
	}
	return &ApplyStream{
		rng:     rng,
		classes: [][]Op{or128, or16, and, xor, not, pop},
		deck:    newDeck(rng, 7, 9, 1, 1, 1, 1), // 35% 128-row, 45% 16-row ORs
	}
}

// Next returns the next op. Ops share their Srcs slices with the
// templates; callers must not modify them.
func (s *ApplyStream) Next() Op {
	class := s.classes[s.deck.next()]
	return class[s.rng.Intn(len(class))]
}

// ChurnStream is batch-churn's stream: windows of short 1–2 operand ops
// spread over a pool of vectors, and between windows a few vectors to
// free, reallocate and rewrite.
type ChurnStream struct {
	rng  *rand.Rand
	nvec int
	size int
	deck *deck
}

// NewChurnStream draws windows of size ops over nvec vectors.
func NewChurnStream(seed int64, nvec, size int) *ChurnStream {
	rng := Rand(seed, "batch-churn/ops")
	return &ChurnStream{
		rng:  rng,
		nvec: nvec,
		size: size,
		deck: newDeck(rng, 4, 2, 4, 4, 3, 3), // or2, or1, and, xor, not, popcount
	}
}

// Window returns the next window's ops.
func (s *ChurnStream) Window() []Op {
	ops := make([]Op, s.size)
	for i := range ops {
		var op Op
		switch s.deck.next() {
		case 0:
			op = Op{Kind: Or, Srcs: distinct(s.rng, s.nvec, 2)}
		case 1:
			op = Op{Kind: Or, Srcs: distinct(s.rng, s.nvec, 1)}
		case 2:
			op = Op{Kind: And, Srcs: distinct(s.rng, s.nvec, 2)}
		case 3:
			op = Op{Kind: Xor, Srcs: distinct(s.rng, s.nvec, 2)}
		case 4:
			op = Op{Kind: Not, Srcs: distinct(s.rng, s.nvec, 1)}
		default:
			op = Op{Kind: Popcount}
		}
		op.Dst = s.rng.Intn(s.nvec)
		ops[i] = op
	}
	return ops
}

// Victims picks k vectors to free and reallocate that no op of next
// touches (next is admitted before the churn runs).
func (s *ChurnStream) Victims(next []Op, k int) []int {
	used := make(map[int]bool)
	for _, op := range next {
		used[op.Dst] = true
		for _, x := range op.Srcs {
			used[x] = true
		}
	}
	var out []int
	for _, v := range s.rng.Perm(s.nvec) {
		if len(out) == k {
			break
		}
		if !used[v] {
			out = append(out, v)
		}
	}
	return out
}

// Fill returns n random words for a rewritten vector.
func (s *ChurnStream) Fill(n int) []uint64 { return Words(s.rng, n) }

// Request is one open-loop request: due at Due after the schedule
// starts, from Tenant, on that tenant's vectors.
type Request struct {
	Due    time.Duration
	Tenant int
	Op
}

// Schedule returns the Poisson arrivals at rate req/s over dur: the whole
// open-loop schedule is fixed before the first send, so it cannot depend
// on how fast the server answers. Requests are or/and/xor/popcount on the
// tenants' vectors, with about 5% reads.
func Schedule(seed int64, stream string, rate float64, dur time.Duration, tenants, vecs int) []Request {
	rng := Rand(seed, "serve-open/"+stream)
	kinds := newDeck(rng, 6, 5, 5, 3, 1) // or, and, xor, popcount, read
	var out []Request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		r := Request{Due: due, Tenant: rng.Intn(tenants)}
		r.Dst = rng.Intn(vecs)
		switch kinds.next() {
		case 0:
			r.Kind, r.Srcs = Or, distinct(rng, vecs, 2)
		case 1:
			r.Kind, r.Srcs = And, distinct(rng, vecs, 2)
		case 2:
			r.Kind, r.Srcs = Xor, distinct(rng, vecs, 2)
		case 3:
			r.Kind = Popcount
		default:
			r.Kind = Read
		}
		out = append(out, r)
	}
}
