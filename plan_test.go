package pinatubo

import (
	"reflect"
	"testing"

	"pinatubo/internal/chansim"
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/pimrt"
)

// planReference captures the command sequence of one bare controller-level
// OR from an identically configured system and lowers it to a chansim
// template through FromDDR rather than Program.Request, the way a caller
// without the Plan API would set up a saturation study.
func planReference(t *testing.T) chansim.Request {
	t.Helper()
	ref := newSys(t)
	rows, err := ref.alloc.AllocGroupRows(ref.MaxORRows())
	if err != nil {
		t.Fatal(err)
	}
	geo := ref.mem.Geometry()
	sr, err := ref.sched.OR(rows, ref.RowBits(), pimrt.ScratchRow(geo, rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	instrs := sr.Program.Instrs
	if len(instrs) != 1 || instrs[0].Kind != cmdstream.KindRequest || instrs[0].Cmds == nil {
		t.Fatalf("zero-fault OR program %+v, want 1 request instruction with commands", instrs)
	}
	return chansim.FromDDR("or", instrs[0].Cmds, ref.mem.Tech().Timing, ref.ctl.Bus(), geo.BanksPerChip)
}

func TestPlanZeroFaultMatchesChansim(t *testing.T) {
	const concurrency = 16
	sys := newSys(t)
	rep, err := sys.Plan(OpOr, concurrency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replications != 1 {
		t.Errorf("zero-fault Replications=%d want 1", rep.Replications)
	}

	template := planReference(t)
	ks := planKs(concurrency)
	sat, err := chansim.SaturationPoint(template, ks, planFrac)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SaturationPoint != sat {
		t.Errorf("Plan saturation %d != chansim.SaturationPoint %d", rep.SaturationPoint, sat)
	}
	curve, err := chansim.ThroughputCurve(template, ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(ks) {
		t.Fatalf("plan has %d points want %d", len(rep.Points), len(ks))
	}
	for i, p := range rep.Points {
		if p.Concurrency != ks[i] {
			t.Errorf("point %d concurrency %d want %d", i, p.Concurrency, ks[i])
		}
		// Bit-identical, not approximately equal: the plan replays the
		// same trace through the same scheduler in the same order.
		if p.Throughput != curve[i] {
			t.Errorf("point k=%d throughput %v != chansim curve %v", p.Concurrency, p.Throughput, curve[i])
		}
		if p.BusUtilisation < 0 || p.BusUtilisation > 1 {
			t.Errorf("point k=%d bus utilisation %v outside 0..1", p.Concurrency, p.BusUtilisation)
		}
	}
	if rep.Headroom < 1 {
		t.Errorf("zero-fault headroom %v < 1", rep.Headroom)
	}
}

func TestPlanDeterministicForSeed(t *testing.T) {
	run := func() PlanReport {
		rep, err := newSys(t).Plan(OpOr, 4, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("plans differ for identical config and seed:\n%+v\n%+v", a, b)
	}
}

func TestPlanFaultySanity(t *testing.T) {
	rep, err := newSys(t).Plan(OpXor, 4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replications != planReplications {
		t.Errorf("faulty Replications=%d want %d", rep.Replications, planReplications)
	}
	sawSat := false
	for _, p := range rep.Points {
		if p.Throughput <= 0 {
			t.Errorf("k=%d throughput %v not positive", p.Concurrency, p.Throughput)
		}
		if p.Latency.P99 < p.Latency.P50 || p.Latency.Max < p.Latency.P99 || p.Latency.P50 <= 0 {
			t.Errorf("k=%d latency ordering violated: %+v", p.Concurrency, p.Latency)
		}
		if p.Concurrency == rep.SaturationPoint {
			sawSat = true
		}
	}
	if !sawSat {
		t.Errorf("saturation point %d not among explored levels %+v", rep.SaturationPoint, rep.Points)
	}
	if rep.Headroom <= 0 {
		t.Errorf("headroom %v not positive", rep.Headroom)
	}
}

// TestPlanArbitersDivergeUnderLoad pins the reason WithArbiter exists: under
// load the arbitration policy is visible in the completion-time tail.
// FIFO issues for whichever request can start earliest, oldest-ready for
// whichever has waited longest, and with 16 operations contending for one
// channel those choices produce different p99s (and throughputs). If a
// refactor made the arbiters collapse into one policy, this test catches
// it.
func TestPlanArbitersDivergeUnderLoad(t *testing.T) {
	const concurrency = 16
	sys := newSys(t)
	fifo, err := sys.Plan(OpOr, concurrency, 0, WithArbiter(ArbFIFO))
	if err != nil {
		t.Fatal(err)
	}
	oldest, err := sys.Plan(OpOr, concurrency, 0, WithArbiter(ArbOldestReady))
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Arb != ArbFIFO || oldest.Arb != ArbOldestReady {
		t.Errorf("reports record Arb %v and %v, want %v and %v",
			fifo.Arb, oldest.Arb, ArbFIFO, ArbOldestReady)
	}
	fp := fifo.Points[len(fifo.Points)-1]
	op := oldest.Points[len(oldest.Points)-1]
	if fp.Latency.P99 == op.Latency.P99 {
		t.Errorf("fifo and oldest-ready p99 identical at k=%d: %v", concurrency, fp.Latency.P99)
	}
	if fp.Throughput == op.Throughput {
		t.Errorf("fifo and oldest-ready throughput identical at k=%d: %v", concurrency, fp.Throughput)
	}

	// A bare Plan defaults to FIFO: identical reports, field for field.
	plain, err := sys.Plan(OpOr, concurrency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, fifo) {
		t.Errorf("Plan != Plan(WithArbiter(ArbFIFO)):\n%+v\n%+v", plain, fifo)
	}
}

func TestArbiterString(t *testing.T) {
	if s := ArbFIFO.String(); s != "fifo" {
		t.Errorf("ArbFIFO.String() = %q", s)
	}
	if s := ArbOldestReady.String(); s != "oldest-ready" {
		t.Errorf("ArbOldestReady.String() = %q", s)
	}
}

func TestPlanRejectsBadInputs(t *testing.T) {
	s := newSys(t)
	if _, err := s.Plan(OpOr, 0, 0); err == nil {
		t.Error("concurrency 0 accepted")
	}
	if _, err := s.Plan(OpOr, 4, -0.5); err == nil {
		t.Error("negative fault rate accepted")
	}
	if _, err := s.Plan(OpOr, 4, 1.5); err == nil {
		t.Error("fault rate > 1 accepted")
	}
	if _, err := s.Plan(OpPopcount, 4, 0); err == nil {
		t.Error("OpPopcount accepted as a channel operation")
	}
	if _, err := s.Plan(OpOr, 4, 0, WithArbiter(Arbiter(99))); err == nil {
		t.Error("unknown arbiter accepted")
	}
}
