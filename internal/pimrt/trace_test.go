package pimrt

import (
	"math"
	"math/rand"
	"testing"

	"pinatubo/internal/bitvec"
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/ddr"
	"pinatubo/internal/fault"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

// programSeconds sums the scheduling footprint of a lowered program:
// request commands priced exactly as the controller priced them,
// verification passes at their recorded latency.
func programSeconds(p cmdstream.Program, t nvm.Timing, bus ddr.BusParams) float64 {
	total := 0.0
	for _, in := range p.Instrs {
		switch in.Kind {
		case cmdstream.KindRequest, cmdstream.KindVoted:
			total += ddr.Duration(in.Cmds, t, bus)
		case cmdstream.KindVerify:
			total += in.Seconds
		}
	}
	return total
}

// With resilience off the program is exactly the plain controller command
// sequence — the zero-fault reproduction guarantee the planner relies on.
func TestTracePlainPathMatchesController(t *testing.T) {
	geo := memarch.Default()
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
	rows := []memarch.RowAddr{{Subarray: 0, Row: 0}, {Subarray: 0, Row: 1}}
	dst := memarch.RowAddr{Subarray: 0, Row: 5}
	res, err := s.OR(rows, geo.RowBits(), dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Instrs) != 1 {
		t.Fatalf("plain OR program has %d instructions, want 1", len(res.Program.Instrs))
	}
	in := res.Program.Instrs[0]
	if in.Kind != cmdstream.KindRequest || in.Cmds == nil {
		t.Fatalf("plain instruction should be a request with commands: %+v", in)
	}
	// The instruction is the very command sequence a bare controller emits.
	ref, err := ctl.Execute(sense.OpOR, rows, geo.RowBits(), &dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Cmds) != len(ref.Commands) {
		t.Fatalf("program %d commands, controller %d", len(in.Cmds), len(ref.Commands))
	}
	for i := range in.Cmds {
		if in.Cmds[i] != ref.Commands[i] {
			t.Fatalf("command %d differs: %+v vs %+v", i, in.Cmds[i], ref.Commands[i])
		}
	}
	tech := nvm.Get(nvm.PCM)
	if got := programSeconds(res.Program, tech.Timing, ctl.Bus()); got != res.Cost.Seconds {
		t.Errorf("program seconds %g != cost %g", got, res.Cost.Seconds)
	}
}

// Under heavy faults the program grows with the ladder — retries, verify
// passes and host traffic all leave footprints — and its total duration
// stays exactly the accumulated cost.
func TestTraceAccountsForResilienceExpansions(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newResilientSched(t, geo, fault.Config{Seed: 17, SenseFlipRate: 1})
	rng := rand.New(rand.NewSource(4))
	const bits = 4096
	w := bitvec.WordsFor(bits)
	rows := make([]memarch.RowAddr, 128)
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 3, Row: i}
	}
	fillRows(t, ctl, rows, w, rng)
	dst := memarch.RowAddr{Subarray: 3, Row: 900}
	res, err := s.OR(rows, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	// The expanded program must schedule strictly more than the one plain
	// request the zero-fault path would have issued, and must include
	// verification passes that occupy the bank.
	scheduled, verifies := 0, 0
	for _, in := range res.Program.Instrs {
		switch in.Kind {
		case cmdstream.KindRequest, cmdstream.KindVoted:
			if in.Cmds == nil {
				t.Fatalf("request instruction without commands: %+v", in)
			}
			scheduled++
		case cmdstream.KindVerify:
			if in.Seconds > 0 {
				scheduled++
				verifies++
			}
		}
	}
	if scheduled < 3 {
		t.Fatalf("heavy-fault program schedules only %d instructions", scheduled)
	}
	if verifies == 0 {
		t.Fatal("no verification passes in a verified schedule")
	}
	tech := nvm.Get(nvm.PCM)
	got := programSeconds(res.Program, tech.Timing, ctl.Bus())
	if math.Abs(got-res.Cost.Seconds) > res.Cost.Seconds*1e-12 {
		t.Errorf("program seconds %g != cost %g", got, res.Cost.Seconds)
	}
}
