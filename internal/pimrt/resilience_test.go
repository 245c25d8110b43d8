package pimrt

import (
	"errors"
	"math/rand"
	"testing"

	"pinatubo/internal/analog"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/fault"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

// newResilientSched builds a scheduler with fault injection and the default
// resilience policy over a fresh PCM memory.
func newResilientSched(t *testing.T, geo memarch.Geometry, fc fault.Config) (*Scheduler, *pim.Controller) {
	t.Helper()
	mem, err := memarch.NewMemory(geo, nvm.Get(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := pim.NewController(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fc, nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), geo.RowBits())
	if err != nil {
		t.Fatal(err)
	}
	ctl.AttachInjector(inj)
	s := &Scheduler{
		Ctl:     ctl,
		Scratch: func(sub memarch.RowAddr) memarch.RowAddr { return ScratchRow(geo, sub) },
		Res:     DefaultResilience(),
	}
	return s, ctl
}

func fillRows(t *testing.T, ctl *pim.Controller, rows []memarch.RowAddr, w int, rng *rand.Rand) []uint64 {
	t.Helper()
	want := make([]uint64, w)
	for _, a := range rows {
		words := make([]uint64, w)
		for j := range words {
			words[j] = rng.Uint64()
			want[j] |= words[j]
		}
		if err := ctl.Memory().WriteRow(a, words); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// The tentpole guarantee: even at a sense-flip rate that makes every deep
// OR fail, the resilient scheduler returns the exact digital result, paying
// with retries and depth reductions instead of wrong bits.
func TestResilientORMatchesGoldenUnderHeavyFlips(t *testing.T) {
	t.Run("128-rows", func(t *testing.T) {
		s, ctl := newResilientSched(t, memarch.Default(),
			fault.Config{Seed: 17, SenseFlipRate: 1})
		rng := rand.New(rand.NewSource(4))
		const bits = 4096
		w := bitvec.WordsFor(bits)
		rows := make([]memarch.RowAddr, 128)
		for i := range rows {
			rows[i] = memarch.RowAddr{Subarray: 3, Row: i}
		}
		want := fillRows(t, ctl, rows, w, rng)
		dst := memarch.RowAddr{Subarray: 3, Row: 900}
		res, err := s.OR(rows, bits, dst)
		if err != nil {
			t.Fatal(err)
		}
		got := ctl.Memory().ReadRow(res.FinalDst)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("word %d wrong despite resilience", j)
			}
		}
		if !bitvec.FromWords(bits, res.Words).Equal(bitvec.FromWords(bits, want)) {
			t.Fatal("reported words disagree with memory")
		}
		st := s.FaultStats()
		if st.Retries == 0 || st.Verifies == 0 {
			t.Fatalf("a flip rate of 1 must force retries and verifies: %+v", st)
		}
		if st.DepthReductions == 0 {
			t.Fatalf("a 128-row OR at flip rate 1 must take the depth-split rung: %+v", st)
		}
		if res.Degraded == "" || res.Retries == 0 {
			t.Fatalf("result does not report its degradation: %+v", res)
		}
		if st.BitsCorrected == 0 {
			t.Fatalf("no corrected bits recorded: %+v", st)
		}
	})
	// Regression: past MaxORRows the OR chains links (each restores the
	// previous partial), and the depth-split rung must not commit garbage
	// from a failed first attempt of a link.
	t.Run("chained-200-rows", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			s, ctl := newResilientSched(t, memarch.Default(),
				fault.Config{Seed: seed, SenseFlipRate: 1})
			rng := rand.New(rand.NewSource(seed + 100))
			const bits = 4096
			w := bitvec.WordsFor(bits)
			rows := make([]memarch.RowAddr, 200)
			for i := range rows {
				rows[i] = memarch.RowAddr{Subarray: 3, Row: i}
			}
			want := fillRows(t, ctl, rows, w, rng)
			dst := memarch.RowAddr{Subarray: 3, Row: 900}
			res, err := s.OR(rows, bits, dst)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			got := ctl.Memory().ReadRow(res.FinalDst)
			bad := 0
			for j := range want {
				if got[j] != want[j] {
					bad++
				}
			}
			if bad > 0 {
				t.Errorf("seed %d: %d/%d words wrong in stored dst despite resilience (degraded=%q retries=%d)",
					seed, bad, w, res.Degraded, res.Retries)
			}
		}
	})
}

// Fixed-arity ops have no depth to split; they must degrade straight to the
// serial digital path, which senses one row at a time at the read margin.
func TestResilientANDFallsBackToInterDigital(t *testing.T) {
	s, ctl := newResilientSched(t, memarch.Default(),
		fault.Config{Seed: 23, SenseFlipRate: 1})
	rng := rand.New(rand.NewSource(9))
	const bits = 4096
	w := bitvec.WordsFor(bits)
	srcs := []memarch.RowAddr{{Subarray: 1, Row: 0}, {Subarray: 1, Row: 1}}
	a := make([]uint64, w)
	b := make([]uint64, w)
	for j := 0; j < w; j++ {
		a[j], b[j] = rng.Uint64(), rng.Uint64()
	}
	if err := ctl.Memory().WriteRow(srcs[0], a); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Memory().WriteRow(srcs[1], b); err != nil {
		t.Fatal(err)
	}
	dst := memarch.RowAddr{Subarray: 1, Row: 7}
	res, err := s.Execute(sense.OpAND, srcs, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	got := ctl.Memory().ReadRow(res.FinalDst)
	for j := 0; j < w; j++ {
		if got[j] != (a[j] & b[j]) {
			t.Fatalf("word %d wrong despite resilience", j)
		}
	}
	if res.Degraded != DegradedInter {
		t.Fatalf("Degraded=%q, want %q", res.Degraded, DegradedInter)
	}
	if s.FaultStats().InterFallbacks == 0 {
		t.Fatal("no inter fallback recorded")
	}
}

// preWear programs a row repeatedly so the wear model mints stuck-at bits.
func preWear(t *testing.T, ctl *pim.Controller, addr memarch.RowAddr, bits, times int) {
	t.Helper()
	ones := make([]uint64, bitvec.WordsFor(bits))
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for i := 0; i < times; i++ {
		if _, err := ctl.WriteRowFromHost(addr, ones, bits); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWornDestinationRetiredAndRemapped(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newResilientSched(t, geo, fault.Config{Seed: 31, WearLimit: 2})
	// Full-row vectors: stuck-at positions are drawn across the whole row,
	// so the verified window must cover it.
	bits := geo.RowBits()
	w := bitvec.WordsFor(bits)
	srcs := []memarch.RowAddr{{Subarray: 2, Row: 0}, {Subarray: 2, Row: 1}}
	ones := make([]uint64, w)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for _, a := range srcs {
		if err := ctl.Memory().WriteRow(a, ones); err != nil {
			t.Fatal(err)
		}
	}
	// 20 programs at WearLimit=2 mint ~10 stuck bits; with all-ones data at
	// least one is stuck at 0, so the op's writeback cannot stick.
	dst := memarch.RowAddr{Subarray: 2, Row: 500}
	preWear(t, ctl, dst, bits, 20)

	nextSpare := 600
	s.Remap = func(old memarch.RowAddr) (memarch.RowAddr, error) {
		fresh := memarch.RowAddr{Subarray: 2, Row: nextSpare}
		nextSpare++
		return fresh, nil
	}
	res, err := s.Execute(sense.OpAND, srcs, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDst == dst {
		t.Fatal("damaged destination was not remapped")
	}
	got := ctl.Memory().ReadRow(res.FinalDst)
	for j := 0; j < w; j++ {
		if got[j] != ^uint64(0) {
			t.Fatalf("word %d wrong after remap", j)
		}
	}
	st := s.FaultStats()
	if st.RowsRetired == 0 {
		t.Fatalf("no rows retired: %+v", st)
	}
	if res.BitsCorrected == 0 {
		t.Fatal("the intercepted stuck bits were not counted")
	}
}

func TestLadderExhaustsLoudlyWithoutRemap(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newResilientSched(t, geo, fault.Config{Seed: 31, WearLimit: 2})
	// Full-row vectors: stuck-at positions are drawn across the whole row,
	// so the verified window must cover it.
	bits := geo.RowBits()
	w := bitvec.WordsFor(bits)
	srcs := []memarch.RowAddr{{Subarray: 2, Row: 0}, {Subarray: 2, Row: 1}}
	ones := make([]uint64, w)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for _, a := range srcs {
		if err := ctl.Memory().WriteRow(a, ones); err != nil {
			t.Fatal(err)
		}
	}
	dst := memarch.RowAddr{Subarray: 2, Row: 500}
	preWear(t, ctl, dst, bits, 20)

	// No Remap hook: the ladder must fail with the sentinel, not return a
	// row that silently holds corrupted bits.
	_, err := s.Execute(sense.OpAND, srcs, bits, dst)
	if !errors.Is(err, ErrResilienceExhausted) {
		t.Fatalf("err=%v, want ErrResilienceExhausted", err)
	}
}

// Satellite: off-by-one boundaries of the scheduler's chaining, both at the
// intra one-step depth (MaxORRows) and at the inter combine cap
// (InterORLimit).
func TestChainingBoundaries(t *testing.T) {
	t.Run("intra-depth", func(t *testing.T) {
		cases := []struct {
			rows int
			want int // hardware requests
		}{
			{127, 1},
			{128, 1}, // exactly one full-depth op
			{129, 2}, // one extra row forces a chained second op
			{255, 2}, // 128 + (1 acc + 127)
			{256, 3}, // 128 + 127 + 1 remaining
		}
		for _, tc := range cases {
			s, ctl := newSched(t)
			rng := rand.New(rand.NewSource(int64(tc.rows)))
			const bits = 512
			w := bitvec.WordsFor(bits)
			rows := make([]memarch.RowAddr, tc.rows)
			for i := range rows {
				rows[i] = memarch.RowAddr{Subarray: 5, Row: i}
			}
			want := fillRows(t, ctl, rows, w, rng)
			dst := memarch.RowAddr{Subarray: 5, Row: 1000}
			res, err := s.OR(rows, bits, dst)
			if err != nil {
				t.Fatalf("%d rows: %v", tc.rows, err)
			}
			if res.Requests != tc.want {
				t.Errorf("%d rows: %d requests, want %d", tc.rows, res.Requests, tc.want)
			}
			got := ctl.Memory().ReadRow(dst)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%d rows: word %d wrong", tc.rows, j)
				}
			}
		}
	})

	t.Run("inter-limit", func(t *testing.T) {
		// A geometry with 512 subarrays in one bank, so an inter combine
		// can legally exceed InterORLimit operands.
		geo := memarch.Geometry{
			Channels: 1, RanksPerChannel: 1, ChipsPerRank: 1,
			BanksPerChip: 1, SubarraysPerBank: 512, MatsPerSubarray: 1,
			RowsPerSubarray: 4, MatRowBits: 64, MuxRatio: 32,
		}
		cases := []struct {
			subs int
			want int
		}{
			{pim.InterORLimit - 1, 1},
			{pim.InterORLimit, 1},     // exactly one inter request
			{pim.InterORLimit + 1, 2}, // one over the cap chains
		}
		for _, tc := range cases {
			mem, err := memarch.NewMemory(geo, nvm.Get(nvm.PCM))
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := pim.NewController(mem, 0)
			if err != nil {
				t.Fatal(err)
			}
			s := &Scheduler{
				Ctl:     ctl,
				Scratch: func(sub memarch.RowAddr) memarch.RowAddr { return ScratchRow(geo, sub) },
			}
			rng := rand.New(rand.NewSource(int64(tc.subs)))
			const bits = 64
			rows := make([]memarch.RowAddr, tc.subs)
			for i := range rows {
				rows[i] = memarch.RowAddr{Subarray: i, Row: 0}
			}
			want := fillRows(t, ctl, rows, 1, rng)
			dst := memarch.RowAddr{Subarray: 0, Row: 1}
			res, err := s.OR(rows, bits, dst)
			if err != nil {
				t.Fatalf("%d subarrays: %v", tc.subs, err)
			}
			if res.Requests != tc.want {
				t.Errorf("%d subarrays: %d requests, want %d", tc.subs, res.Requests, tc.want)
			}
			if got := ctl.Memory().ReadRow(dst); got[0] != want[0] {
				t.Fatalf("%d subarrays: wrong result", tc.subs)
			}
		}
	})
}

func TestRetiredRowsStayOutOfCirculation(t *testing.T) {
	a := newAlloc(t, true)
	rows, err := a.AllocRows(4)
	if err != nil {
		t.Fatal(err)
	}
	a.Retire(rows[0])
	if a.RetiredRows() != 1 {
		t.Fatalf("RetiredRows=%d want 1", a.RetiredRows())
	}
	a.Free(rows) // includes the retired row, which must not re-enter
	again, err := a.AllocRows(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range again {
		if r == rows[0] {
			t.Fatal("retired row handed out again")
		}
	}
	// Retiring a freed row removes it from the free list too.
	a.Free(again[:1])
	a.Retire(again[0])
	next, err := a.AllocRows(1)
	if err != nil {
		t.Fatal(err)
	}
	if next[0] == again[0] {
		t.Fatal("retired free-list row handed out again")
	}
}

func TestOutOfMemoryWrapsContext(t *testing.T) {
	small := memarch.Default()
	small.Channels = 1
	small.RanksPerChannel = 1
	small.BanksPerChip = 1
	small.SubarraysPerBank = 1
	small.RowsPerSubarray = 4
	a, err := NewAllocator(small, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocRows(8); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("AllocRows err=%v, want wrapped ErrOutOfMemory", err)
	}
	// A failed AllocRows leaves the frontier consumed, so use a fresh
	// allocator for the group-shaped failure.
	b, err := NewAllocator(small, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AllocGroupRows(3); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AllocGroupRows(3); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("AllocGroupRows err=%v, want wrapped ErrOutOfMemory", err)
	}
}
