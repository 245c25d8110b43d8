package pim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/ddr"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

func newCtl(t testing.TB, tech nvm.Tech) *Controller {
	t.Helper()
	mem, err := memarch.NewMemory(memarch.Default(), nvm.Get(tech))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fillRow writes pseudo-random words into a row and returns the first w
// words for reference computation.
func fillRow(t testing.TB, c *Controller, addr memarch.RowAddr, w int, rng *rand.Rand) []uint64 {
	t.Helper()
	words := make([]uint64, w)
	for i := range words {
		words[i] = rng.Uint64()
	}
	if err := c.Memory().WriteRow(addr, words); err != nil {
		t.Fatal(err)
	}
	return words
}

func addrsInSubarray(n int) []memarch.RowAddr {
	out := make([]memarch.RowAddr, n)
	for i := range out {
		out[i] = memarch.RowAddr{Channel: 0, Bank: 1, Subarray: 2, Row: i}
	}
	return out
}

// TestLWLProtocol checks the local-wordline latch protocol the controller
// drives through its backend: RESET before LATCH, one latch per row, rows
// inside the subarray, Open in address order, and RESET clearing latches.
func TestLWLProtocol(t *testing.T) {
	l := backend.NewLWL(16)
	if err := l.Latch(0); err == nil {
		t.Fatal("latch before RESET should fail")
	}
	l.Reset()
	for _, r := range []int{3, 1, 7} {
		if err := l.Latch(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Latch(3); err == nil {
		t.Fatal("double latch should fail")
	}
	if err := l.Latch(16); err == nil {
		t.Fatal("out-of-range latch should fail")
	}
	open := l.Open()
	if len(open) != 3 || open[0] != 1 || open[1] != 3 || open[2] != 7 {
		t.Fatalf("Open=%v", open)
	}
	l.Reset()
	if l.OpenCount() != 0 {
		t.Fatal("RESET did not clear latches")
	}
	if err := l.Latch(3); err != nil {
		t.Fatal("re-latch after RESET should work")
	}
}

func TestClassify(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	intra := addrsInSubarray(2)
	if cl, err := c.Classify(intra); err != nil || cl != ClassIntraSub {
		t.Errorf("intra: %v %v", cl, err)
	}
	interSub := []memarch.RowAddr{
		{Bank: 1, Subarray: 0, Row: 0},
		{Bank: 1, Subarray: 5, Row: 0},
	}
	if cl, err := c.Classify(interSub); err != nil || cl != ClassInterSub {
		t.Errorf("inter-sub: %v %v", cl, err)
	}
	interBank := []memarch.RowAddr{
		{Bank: 0, Subarray: 0, Row: 0},
		{Bank: 3, Subarray: 0, Row: 0},
	}
	if cl, err := c.Classify(interBank); err != nil || cl != ClassInterBank {
		t.Errorf("inter-bank: %v %v", cl, err)
	}
	cross := []memarch.RowAddr{
		{Channel: 0}, {Channel: 1},
	}
	if _, err := c.Classify(cross); !errors.Is(err, ErrCrossRank) {
		t.Errorf("cross-channel err=%v", err)
	}
	shared := []memarch.RowAddr{{Row: 4}, {Row: 4}}
	if _, err := c.Classify(shared); !errors.Is(err, ErrSharedRow) {
		t.Errorf("shared row err=%v", err)
	}
	if _, err := c.Classify(nil); err == nil {
		t.Error("empty operand set accepted")
	}
	if _, err := c.Classify([]memarch.RowAddr{{Channel: 99}}); err == nil {
		t.Error("invalid address accepted")
	}
}

func TestClassString(t *testing.T) {
	if ClassIntraSub.String() != "intra-subarray" ||
		ClassInterSub.String() != "inter-subarray" ||
		ClassInterBank.String() != "inter-bank" {
		t.Error("class names wrong")
	}
	if Class(9).String() == "" {
		t.Error("unknown class string empty")
	}
}

func TestExecuteIntraORFunctional(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	rng := rand.New(rand.NewSource(1))
	srcs := addrsInSubarray(4)
	const bits = 1 << 12
	w := bitvec.WordsFor(bits)
	var want []uint64
	for i, s := range srcs {
		row := fillRow(t, c, s, w, rng)
		if i == 0 {
			want = append([]uint64(nil), row...)
		} else {
			for j := range want {
				want[j] |= row[j]
			}
		}
	}
	dst := memarch.RowAddr{Bank: 1, Subarray: 2, Row: 100}
	res, err := c.Execute(sense.OpOR, srcs, bits, &dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassIntraSub {
		t.Errorf("class=%v", res.Class)
	}
	for j := range want {
		if res.Words[j] != want[j] {
			t.Fatalf("word %d mismatch", j)
		}
	}
	// The destination row must hold the result.
	got := c.Memory().ReadRow(dst)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("dst word %d mismatch", j)
		}
	}
}

func TestExecuteAllOpsMatchReference(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	rng := rand.New(rand.NewSource(2))
	const bits = 3000 // deliberately not word- or group-aligned
	w := bitvec.WordsFor(bits)
	srcs := addrsInSubarray(2)
	a := fillRow(t, c, srcs[0], w, rng)
	b := fillRow(t, c, srcs[1], w, rng)

	cases := []struct {
		op   sense.Op
		n    int
		want func(j int) uint64
	}{
		{sense.OpAND, 2, func(j int) uint64 { return a[j] & b[j] }},
		{sense.OpOR, 2, func(j int) uint64 { return a[j] | b[j] }},
		{sense.OpXOR, 2, func(j int) uint64 { return a[j] ^ b[j] }},
		{sense.OpINV, 1, func(j int) uint64 { return ^a[j] }},
		{sense.OpRead, 1, func(j int) uint64 { return a[j] }},
	}
	for _, tc := range cases {
		res, err := c.Execute(tc.op, srcs[:tc.n], bits, nil)
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		for j := 0; j < w; j++ {
			if res.Words[j] != tc.want(j) {
				t.Fatalf("%v word %d mismatch", tc.op, j)
			}
		}
	}
}

func TestExecuteInterSubFunctional(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	rng := rand.New(rand.NewSource(3))
	srcs := []memarch.RowAddr{
		{Bank: 2, Subarray: 1, Row: 10},
		{Bank: 2, Subarray: 9, Row: 20},
		{Bank: 2, Subarray: 30, Row: 5},
	}
	const bits = 1 << 19
	w := bitvec.WordsFor(bits)
	var want []uint64
	for i, s := range srcs {
		row := fillRow(t, c, s, w, rng)
		if i == 0 {
			want = append([]uint64(nil), row...)
		} else {
			for j := range want {
				want[j] |= row[j]
			}
		}
	}
	dst := memarch.RowAddr{Bank: 2, Subarray: 0, Row: 0}
	res, err := c.Execute(sense.OpOR, srcs, bits, &dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassInterSub {
		t.Fatalf("class=%v", res.Class)
	}
	got := c.Memory().ReadRow(dst)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("dst word %d mismatch", j)
		}
	}
}

func TestExecuteInterBankFunctional(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	rng := rand.New(rand.NewSource(4))
	srcs := []memarch.RowAddr{
		{Bank: 0, Subarray: 1, Row: 1},
		{Bank: 7, Subarray: 2, Row: 2},
	}
	const bits = 4096
	w := bitvec.WordsFor(bits)
	a := fillRow(t, c, srcs[0], w, rng)
	b := fillRow(t, c, srcs[1], w, rng)
	res, err := c.Execute(sense.OpXOR, srcs, bits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassInterBank {
		t.Fatalf("class=%v", res.Class)
	}
	for j := 0; j < w; j++ {
		if res.Words[j] != a[j]^b[j] {
			t.Fatalf("word %d mismatch", j)
		}
	}
}

func TestIntraMultiRowOR128(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	rng := rand.New(rand.NewSource(5))
	srcs := addrsInSubarray(128)
	const bits = 1 << 14
	w := bitvec.WordsFor(bits)
	want := make([]uint64, w)
	for _, s := range srcs {
		row := fillRow(t, c, s, w, rng)
		for j := range want {
			want[j] |= row[j]
		}
	}
	res, err := c.Execute(sense.OpOR, srcs, bits, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if res.Words[j] != want[j] {
			t.Fatalf("word %d mismatch", j)
		}
	}
	if res.Rows != 128 {
		t.Errorf("Rows=%d", res.Rows)
	}
}

func TestSTTMRAMRejectsDeepOR(t *testing.T) {
	c := newCtl(t, nvm.STTMRAM)
	srcs := addrsInSubarray(4)
	if _, err := c.Execute(sense.OpOR, srcs, 64, nil); err == nil {
		t.Fatal("4-row OR on STT-MRAM should fail")
	}
	if _, err := c.Execute(sense.OpOR, srcs[:2], 64, nil); err != nil {
		t.Fatalf("2-row OR on STT-MRAM should pass: %v", err)
	}
}

func TestExecuteValidation(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	srcs := addrsInSubarray(2)
	if _, err := c.Execute(sense.OpOR, srcs, 0, nil); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := c.Execute(sense.OpOR, srcs, 1<<20, nil); err == nil {
		t.Error("bits beyond row accepted")
	}
	badDst := memarch.RowAddr{Channel: 99}
	if _, err := c.Execute(sense.OpOR, srcs, 64, &badDst); err == nil {
		t.Error("invalid dst accepted")
	}
	crossDst := memarch.RowAddr{Channel: 1}
	if _, err := c.Execute(sense.OpOR, srcs, 64, &crossDst); !errors.Is(err, ErrCrossRank) {
		t.Errorf("cross-rank dst err=%v", err)
	}
	if _, err := c.Execute(sense.OpAND, addrsInSubarray(3), 64, nil); err == nil {
		t.Error("3-operand AND accepted")
	}
	// Inter-path INV with 2 operands must fail.
	two := []memarch.RowAddr{{Bank: 0}, {Bank: 1}}
	if _, err := c.Execute(sense.OpINV, two, 64, nil); err == nil {
		t.Error("2-operand INV accepted")
	}
	// Inter-path AND with 3 operands must fail.
	three := []memarch.RowAddr{{Bank: 0}, {Bank: 1}, {Bank: 2}}
	if _, err := c.Execute(sense.OpAND, three, 64, nil); err == nil {
		t.Error("3-operand inter AND accepted")
	}
}

func TestCommandSequenceIntra(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	srcs := addrsInSubarray(3)
	dst := memarch.RowAddr{Bank: 1, Subarray: 2, Row: 50}
	res, err := c.Execute(sense.OpOR, srcs, 1<<19, &dst)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ddr.CmdKind]int{}
	for _, cmd := range res.Commands {
		counts[cmd.Kind]++
	}
	if counts[ddr.CmdMRS] != 1 || counts[ddr.CmdLWLReset] != 1 {
		t.Errorf("MRS/RESET counts: %v", counts)
	}
	if counts[ddr.CmdAct] != 1 || counts[ddr.CmdActLatch] != 2 {
		t.Errorf("activation counts: %v", counts)
	}
	// Full row at 32:1 mux → 32 sense steps.
	if counts[ddr.CmdSense] != 32 {
		t.Errorf("sense steps=%d want 32", counts[ddr.CmdSense])
	}
	if counts[ddr.CmdWBack] != 1 || counts[ddr.CmdPre] != 1 {
		t.Errorf("writeback counts: %v", counts)
	}
	// In-place update: no data on the DDR bus at all.
	if counts[ddr.CmdRd] != 0 || counts[ddr.CmdWr] != 0 {
		t.Errorf("data burst on the bus during PIM op: %v", counts)
	}
}

func TestXORTakesTwoMicroSteps(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	srcs := addrsInSubarray(2)
	or, err := c.Execute(sense.OpOR, srcs, 1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	xor, err := c.Execute(sense.OpXOR, srcs, 1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	nSense := func(r *Result) int {
		n := 0
		for _, cmd := range r.Commands {
			if cmd.Kind == ddr.CmdSense {
				n++
			}
		}
		return n
	}
	if nSense(xor) != 2*nSense(or) {
		t.Errorf("XOR sense steps=%d, OR=%d; want 2x", nSense(xor), nSense(or))
	}
}

func TestLatencyScalesWithColumnGroups(t *testing.T) {
	// Fig. 9 turning point A: beyond the 2^14-bit sense width, sensing
	// serialises over column groups.
	c := newCtl(t, nvm.PCM)
	srcs := addrsInSubarray(2)
	short, err := c.Execute(sense.OpOR, srcs, 1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	long, err := c.Execute(sense.OpOR, srcs, 1<<19, nil)
	if err != nil {
		t.Fatal(err)
	}
	tcl := nvm.Get(nvm.PCM).Timing.TCL
	wantDelta := 31 * tcl
	// The RD burst also grows; subtract it for a clean comparison.
	bus := ddr.DefaultBus()
	rdShort := float64(1<<14) / 8 / bus.BytesPerSec
	rdLong := float64(1<<19) / 8 / bus.BytesPerSec
	delta := (long.Seconds - rdLong) - (short.Seconds - rdShort)
	if math.Abs(delta-wantDelta) > 1e-12 {
		t.Errorf("group-serialisation delta %.4g want %.4g", delta, wantDelta)
	}
}

func TestMultiRowAmortisesLatency(t *testing.T) {
	// A 128-row OR must be far cheaper than 127 sequential 2-row ORs.
	c := newCtl(t, nvm.PCM)
	srcs := addrsInSubarray(128)
	dst := memarch.RowAddr{Bank: 1, Subarray: 2, Row: 200}
	one, err := c.Execute(sense.OpOR, srcs, 1<<19, &dst)
	if err != nil {
		t.Fatal(err)
	}
	two, err := c.Execute(sense.OpOR, srcs[:2], 1<<19, &dst)
	if err != nil {
		t.Fatal(err)
	}
	if one.Seconds > 2*two.Seconds {
		t.Errorf("128-row OR (%.3g s) should cost at most ~2x a 2-row OR (%.3g s)",
			one.Seconds, two.Seconds)
	}
}

func TestInterSlowerThanIntra(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	intra, err := c.Execute(sense.OpOR, addrsInSubarray(2), 1<<19, nil)
	if err != nil {
		t.Fatal(err)
	}
	interSrcs := []memarch.RowAddr{{Bank: 1, Subarray: 0}, {Bank: 1, Subarray: 5}}
	inter, err := c.Execute(sense.OpOR, interSrcs, 1<<19, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Seconds <= intra.Seconds {
		t.Errorf("inter-subarray (%.3g) should be slower than intra (%.3g)",
			inter.Seconds, intra.Seconds)
	}
	if inter.Energy.Total() <= intra.Energy.Total() {
		t.Errorf("inter-subarray energy (%s) should exceed intra (%s)",
			inter.Energy.String(), intra.Energy.String())
	}
}

func TestEnergyGrowsWithRowsButSublinearly(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	srcs := addrsInSubarray(128)
	e2, err := c.Execute(sense.OpOR, srcs[:2], 1<<19, nil)
	if err != nil {
		t.Fatal(err)
	}
	e128, err := c.Execute(sense.OpOR, srcs, 1<<19, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e128.Energy.Total() <= e2.Energy.Total() {
		t.Error("more open rows must cost more energy")
	}
	// But per operand row, the 128-row op must be much cheaper.
	per2 := e2.Energy.Total() / 2
	per128 := e128.Energy.Total() / 128
	if per128 >= per2 {
		t.Errorf("per-row energy should shrink: 2-row %.3g vs 128-row %.3g", per2, per128)
	}
}

func TestModeRegisterReflectsOp(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	if _, err := c.Execute(sense.OpOR, addrsInSubarray(7), 64, nil); err != nil {
		t.Fatal(err)
	}
	op, n := c.ModeRegister().Decode()
	if op != sense.OpOR || n != 7 {
		t.Errorf("MR4 = (%v,%d) want (OR,7)", op, n)
	}
}

func TestWriteRowFromHostAndReadRow(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	addr := memarch.RowAddr{Bank: 3, Subarray: 4, Row: 5}
	words := []uint64{0xAA, 0xBB}
	res, err := c.WriteRowFromHost(addr, words, 128)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Energy.Total() <= 0 {
		t.Error("host write should cost time and energy")
	}
	rd, err := c.ReadRow(addr, 128)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Words[0] != 0xAA || rd.Words[1] != 0xBB {
		t.Errorf("read back %x %x", rd.Words[0], rd.Words[1])
	}
	// Errors.
	if _, err := c.WriteRowFromHost(addr, words, 64); err == nil {
		t.Error("too many words accepted")
	}
	if _, err := c.WriteRowFromHost(addr, words, 0); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := c.WriteRowFromHost(memarch.RowAddr{Channel: 9}, words, 128); err == nil {
		t.Error("bad addr accepted")
	}
}

func TestNewControllerSelectsDRAMBackend(t *testing.T) {
	mem, err := memarch.NewMemory(memarch.Default(), nvm.Get(nvm.DRAM))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(mem, 0)
	if err != nil {
		t.Fatalf("DRAM controller: %v", err)
	}
	caps := ctl.Backend().Caps()
	if caps.VotedSensing {
		t.Error("DRAM backend must not offer voted sensing (TRA is destructive)")
	}
	if caps.ComputeRows == 0 {
		t.Error("DRAM backend must reserve compute rows")
	}
	if got := ctl.MaxORRows(); got != 2 {
		t.Errorf("DRAM MaxORRows = %d, want 2 (pairwise TRA)", got)
	}
	// Voted execution is gated on the capability, not the request shape.
	geo := mem.Geometry()
	sets := [][]memarch.RowAddr{
		{{Row: 0}, {Row: 1}},
		{{Row: 2}, {Row: 3}},
		{{Row: 4}, {Row: 5}},
	}
	if _, err := ctl.ExecuteVoted(sense.OpOR, sets, geo.RowBits(), nil); err == nil {
		t.Fatal("ExecuteVoted on the DRAM backend should fail")
	}
}

// Property: for random placements and operand data, Execute(OR) matches the
// bitvec reference and classifies consistently with the predicates.
func TestPropExecuteORMatchesReference(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	rng := rand.New(rand.NewSource(77))
	f := func(seed int64, nSeed, spread uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nSeed)%6 + 2
		srcs := make([]memarch.RowAddr, n)
		rowUsed := map[uint64]bool{}
		for i := range srcs {
			a := memarch.RowAddr{Bank: 1, Subarray: 2, Row: r.Intn(1024)}
			if spread%3 == 1 {
				a.Subarray = r.Intn(32)
			}
			if spread%3 == 2 {
				a.Bank = r.Intn(8)
				a.Subarray = r.Intn(32)
			}
			key := memarch.Default().Encode(a)
			if rowUsed[key] {
				a.Row = (a.Row + 1 + i) % 1024 // nudge duplicates apart
			}
			rowUsed[memarch.Default().Encode(a)] = true
			srcs[i] = a
		}
		if !memarch.DistinctRows(memarch.Default(), srcs...) {
			return true // skip rare residual collisions
		}
		const bits = 2048
		w := bitvec.WordsFor(bits)
		want := make([]uint64, w)
		for _, s := range srcs {
			row := fillRow(t, c, s, w, rng)
			for j := range want {
				want[j] |= row[j]
			}
		}
		res, err := c.Execute(sense.OpOR, srcs, bits, nil)
		if err != nil {
			return false
		}
		for j := range want {
			if res.Words[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExecuteIntraOR2(b *testing.B) {
	c := newCtl(b, nvm.PCM)
	srcs := addrsInSubarray(2)
	dst := memarch.RowAddr{Bank: 1, Subarray: 2, Row: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Execute(sense.OpOR, srcs, 1<<19, &dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteIntraOR128(b *testing.B) {
	c := newCtl(b, nvm.PCM)
	srcs := addrsInSubarray(128)
	dst := memarch.RowAddr{Bank: 1, Subarray: 2, Row: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Execute(sense.OpOR, srcs, 1<<19, &dst); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCountersAccumulate(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	srcs := addrsInSubarray(3)
	dst := memarch.RowAddr{Bank: 1, Subarray: 2, Row: 77}
	if _, err := c.Execute(sense.OpOR, srcs, 1<<19, &dst); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(sense.OpOR, srcs, 1<<19, nil); err != nil {
		t.Fatal(err)
	}
	ct := c.Counters()
	if ct.Ops[ClassIntraSub] != 2 {
		t.Errorf("intra ops=%d want 2", ct.Ops[ClassIntraSub])
	}
	if ct.Activations != 6 {
		t.Errorf("activations=%d want 6 (3 rows x 2 ops)", ct.Activations)
	}
	if ct.SenseSteps != 64 {
		t.Errorf("sense steps=%d want 64 (32 groups x 2 ops)", ct.SenseSteps)
	}
	if ct.Writebacks != 1 {
		t.Errorf("writebacks=%d want 1 (second op bursts to host)", ct.Writebacks)
	}
	// Only the host-read op put data on the bus.
	if ct.BusBits != 1<<19 {
		t.Errorf("bus bits=%d want 2^19", ct.BusBits)
	}
	// Snapshot is a copy.
	ct.Ops[ClassIntraSub] = 99
	if c.Counters().Ops[ClassIntraSub] == 99 {
		t.Error("Counters leaked internal map")
	}
}

func TestEveryOpSequenceIsProtocolValid(t *testing.T) {
	// Execute validates its own command stream against the DDR bank-state
	// model (a violation panics). Exercise every class and op.
	c := newCtl(t, nvm.PCM)
	intra := addrsInSubarray(2)
	interSub := []memarch.RowAddr{{Bank: 1, Subarray: 0}, {Bank: 1, Subarray: 5}}
	interBank := []memarch.RowAddr{{Bank: 0, Subarray: 1}, {Bank: 5, Subarray: 1}}
	dst := memarch.RowAddr{Bank: 1, Subarray: 2, Row: 99}
	for _, srcs := range [][]memarch.RowAddr{intra, interSub, interBank} {
		for _, op := range []sense.Op{sense.OpAND, sense.OpOR, sense.OpXOR} {
			if _, err := c.Execute(op, srcs, 4096, &dst); err != nil {
				t.Fatalf("%v over %v: %v", op, srcs, err)
			}
		}
		if _, err := c.Execute(sense.OpINV, srcs[:1], 4096, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Serial inter reads from the SAME subarray must also be legal (the
	// per-operand precharge closes the row between reads).
	sameSub := []memarch.RowAddr{
		{Bank: 1, Subarray: 3, Row: 0},
		{Bank: 1, Subarray: 3, Row: 1},
		{Bank: 2, Subarray: 3, Row: 0},
	}
	if _, err := c.Execute(sense.OpOR, sameSub, 4096, &dst); err != nil {
		t.Fatal(err)
	}
}
