package pimrt

// This file is the runtime half of the verify-and-retry resilience layer.
// Every hardware request the scheduler issues can be verified against the
// controller's digital reference and, on failure, walked down a degradation
// ladder that trades speed for certainty but never returns a wrong answer:
//
//	1. retry      — reissue the same request (transient activation faults,
//	                unlucky sense flips);
//	2. depth-split — re-execute a failing intra-subarray multi-row OR as a
//	                chain of shallower ORs whose analog margins are
//	                exponentially wider (each link is itself resilient);
//	3. inter-digital — force the serial digital datapath, which senses one
//	                row at a time at the full read margin;
//	4. host-cpu   — burst the operands over the DDR bus, compute on the
//	                host, write the result back.
//
// Destination rows whose cells no longer hold what the write drivers
// deliver (stuck-at wear) are detected by the stored/claimed comparison and
// retired through the Remap hook, so the ladder terminates even on damaged
// silicon.

import (
	"errors"
	"fmt"

	"pinatubo/internal/backend"
	"pinatubo/internal/memarch"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

// ErrResilienceExhausted is returned when every rung of the degradation
// ladder failed to produce a verified result. The caller gets an error,
// never silently wrong bits.
var ErrResilienceExhausted = errors.New("pimrt: resilience ladder exhausted without a verified result")

// ErrUncorrectable marks a detected-uncorrectable (double-bit class) ECC
// syndrome. It is wrapped alongside ErrResilienceExhausted when the in-array
// SECDED path escalated and the subsequent degradation ladder also failed,
// so callers can distinguish "ECC gave up" from plain ladder exhaustion.
var ErrUncorrectable = errors.New("pimrt: detected-uncorrectable ECC syndrome")

// Resilience configures the scheduler's verify-and-retry policy.
type Resilience struct {
	// MaxRetries bounds the re-executions attempted on each rung of the
	// ladder before degrading to the next one.
	MaxRetries int
	// MinDepth floors the exponential depth reduction of rung 2 (at least
	// 2 — a 2-row OR is the shallowest the hardware has).
	MinDepth int
	// HostFallback enables the final CPU rung.
	HostFallback bool
	// ECC verifies through the controller's in-array SECDED path instead of
	// leading with read-back: syndrome decode on the program-verify sense,
	// single-bit errors fixed in place, and only detected-uncorrectable
	// syndromes fall into the read-back degradation ladder. Requires the
	// controller to have a codec attached (pim.Controller.EnableECC).
	ECC bool
}

// DefaultResilience returns the policy used when faults are enabled without
// explicit tuning: 3 retries per rung, depth floor 2, host fallback on.
func DefaultResilience() *Resilience {
	return &Resilience{MaxRetries: 3, MinDepth: 2, HostFallback: true}
}

func (s *Scheduler) minDepth() int {
	if s.Res.MinDepth >= 2 {
		return s.Res.MinDepth
	}
	return 2
}

// FaultStats accumulates the scheduler's lifetime resilience activity.
type FaultStats struct {
	Verifies        int64 // read-back verification passes
	Retries         int64 // request re-executions (any rung)
	DepthReductions int64 // rung-2 depth halvings
	InterFallbacks  int64 // requests degraded to the digital inter path
	HostFallbacks   int64 // requests degraded to the host CPU
	RowsRetired     int64 // destination rows retired and remapped
	BitsCorrected   int64 // wrong bits intercepted before reaching a caller

	// In-array SECDED activity (Resilience.ECC mode).
	EccDecodes        int64 // syndrome-decode verification passes
	EccCorrectedBits  int64 // single-bit errors SECDED fixed in place
	EccUncorrectables int64 // detected-uncorrectable syndromes escalated

	// Proactive replication activity (the majority-vote rung).
	Votes        int64 // majority-voted requests executed
	BitsOutvoted int64 // replica-disagreeing bits the vote overrode
}

// FaultStats returns a snapshot of the accumulated resilience activity.
func (s *Scheduler) FaultStats() FaultStats { return s.stats }

// ResetStats clears the accumulated resilience counters — pooled shard
// sandboxes reset through here before their next window.
func (s *Scheduler) ResetStats() { s.stats = FaultStats{} }

// AbsorbStats folds another scheduler's accumulated resilience activity
// into this one. The batch executor runs shards on private scheduler
// stacks and merges their counters back through here, so concurrent
// execution neither drops nor double-counts retries and corrections.
func (s *Scheduler) AbsorbStats(o FaultStats) {
	s.stats.Verifies += o.Verifies
	s.stats.Retries += o.Retries
	s.stats.DepthReductions += o.DepthReductions
	s.stats.InterFallbacks += o.InterFallbacks
	s.stats.HostFallbacks += o.HostFallbacks
	s.stats.RowsRetired += o.RowsRetired
	s.stats.BitsCorrected += o.BitsCorrected
	s.stats.EccDecodes += o.EccDecodes
	s.stats.EccCorrectedBits += o.EccCorrectedBits
	s.stats.EccUncorrectables += o.EccUncorrectables
	s.stats.Votes += o.Votes
	s.stats.BitsOutvoted += o.BitsOutvoted
}

// Degradation rungs reported in ScheduleResult.Degraded (worst one wins).
const (
	DegradedDepthSplit = "depth-split"
	DegradedInter      = "inter-digital"
	DegradedHost       = "host-cpu"
)

var degradedRank = map[string]int{
	"": 0, DegradedDepthSplit: 1, DegradedInter: 2, DegradedHost: 3,
}

// WorseDegraded returns the worse of two degradation rungs.
func WorseDegraded(a, b string) string {
	if degradedRank[b] > degradedRank[a] {
		return b
	}
	return a
}

func (r *ScheduleResult) noteDegraded(d string) {
	if degradedRank[d] > degradedRank[r.Degraded] {
		r.Degraded = d
	}
}

// Execute runs one fixed-arity op (AND/XOR/INV/READ — or a one-step OR)
// through the resilience ladder when it is enabled, plainly otherwise. The
// returned FinalDst differs from dst when the destination row was retired.
func (s *Scheduler) Execute(op sense.Op, srcs []memarch.RowAddr, bits int, dst memarch.RowAddr) (*ScheduleResult, error) {
	res := &ScheduleResult{FinalDst: dst}
	tgt := dst
	if _, err := s.request(op, srcs, bits, &tgt, nil, res); err != nil {
		return nil, err
	}
	res.FinalDst = tgt
	res.finalize()
	return res, nil
}

// record lowers one executed controller request into the running program.
// Requests, Cost and Trace are all derived from the program by finalize —
// nothing is accounted by hand here.
func (res *ScheduleResult) record(r *pim.Result) {
	res.Program.Emit(r.Instr())
	res.Words = r.Words
}

// request executes one hardware request (op over srcs into *target). With
// resilience off it is a plain controller call. With resilience on, the
// result is verified and the degradation ladder walked until a verified
// result lands in *target (possibly remapped); the verified words are
// returned. restore must hold the known-good contents of *target when the
// target is also an operand (a chained accumulator), so failed attempts can
// rebuild it; nil means the target is write-only for this request.
func (s *Scheduler) request(op sense.Op, srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, restore []uint64, res *ScheduleResult) ([]uint64, error) {
	if s.Res == nil {
		r, err := s.Ctl.Execute(op, srcs, bits, target)
		if err != nil {
			return nil, err
		}
		res.record(r)
		return r.Words, nil
	}
	golden, err := s.Ctl.Golden(op, srcs, bits)
	if err != nil {
		return nil, err
	}
	// dirty tracks whether *target may hold garbage from a failed attempt
	// and therefore needs restoring before a self-referencing re-execution.
	dirty := false

	if s.Res.ECC {
		// Rung 0 — in-array SECDED: syndrome decode on the program-verify
		// sense, single-bit repair in place. Only a detected-uncorrectable
		// syndrome falls through to the read-back ladder.
		ok, err := s.eccAttempt(op, srcs, bits, target, restore, golden, res, &dirty)
		if err != nil {
			return nil, err
		}
		if ok {
			if err := s.syncReplicas(*target, bits, res); err != nil {
				return nil, err
			}
			return golden, nil
		}
		ok, err = s.ladder(op, srcs, bits, target, restore, golden, res, &dirty)
		if err != nil {
			return nil, err
		}
		if ok {
			// The ladder programmed *target behind the spare columns' backs;
			// regenerate the check bits at the buffer encoder so later reads
			// and chained ops decode against fresh state (nonlinear path —
			// the result sits in a buffer or on the host, not on spare SAs).
			cost, err := s.Ctl.ECCProgram(*target, golden, bits, sense.OpOR, 0)
			if err != nil {
				return nil, err
			}
			res.Program.Emit(cost.Instr(*target))
			if err := s.syncReplicas(*target, bits, res); err != nil {
				return nil, err
			}
			return golden, nil
		}
		return nil, fmt.Errorf("pimrt: %v over %d rows into %v: %w (%w)",
			op, len(srcs), *target, ErrResilienceExhausted, ErrUncorrectable)
	}

	ok, err := s.ladder(op, srcs, bits, target, restore, golden, res, &dirty)
	if err != nil {
		return nil, err
	}
	if ok {
		if err := s.syncReplicas(*target, bits, res); err != nil {
			return nil, err
		}
		return golden, nil
	}
	return nil, fmt.Errorf("pimrt: %v over %d rows into %v: %w", op, len(srcs), *target, ErrResilienceExhausted)
}

// ladder walks the read-back degradation ladder (rungs 1-4) until a
// verified result lands in *target. It reports whether one did.
func (s *Scheduler) ladder(op sense.Op, srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, restore, golden []uint64, res *ScheduleResult, dirty *bool) (bool, error) {
	// Rung 1 — native execution with bounded retries.
	ok, err := s.attempt(op, srcs, bits, target, restore, golden, res, false, dirty)
	if err != nil || ok {
		return ok, err
	}
	// Rung 2 — exponential depth reduction: a failing intra-subarray
	// multi-row OR re-executes as a chain of shallower ORs whose sensing
	// margins are wider.
	if op == sense.OpOR && len(srcs) > s.minDepth() && memarch.SameSubarray(srcs...) {
		for depth := len(srcs) / 2; depth >= s.minDepth(); depth /= 2 {
			s.stats.DepthReductions++
			res.noteDegraded(DegradedDepthSplit)
			ok, err := s.chunked(srcs, bits, target, restore, depth, res, dirty)
			if err != nil || ok {
				return ok, err
			}
		}
	}
	// Rung 3 — the serial digital datapath: single-row sensing only, no
	// multi-row margin to lose.
	s.stats.InterFallbacks++
	res.noteDegraded(DegradedInter)
	ok, err = s.attempt(op, srcs, bits, target, restore, golden, res, true, dirty)
	if err != nil || ok {
		return ok, err
	}
	// Rung 4 — the host CPU.
	if s.Res.HostFallback {
		s.stats.HostFallbacks++
		res.noteDegraded(DegradedHost)
		ok, err = s.hostAttempt(srcs, bits, target, golden, res)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// eccAttempt is the SECDED rung: execute once (reissuing transient
// activation faults within the retry budget), regenerate the destination's
// spare-column check bits, then decode on the program-verify sense.
// Single-bit errors are repaired in place and the request completes without
// ever reading the row back; anything SECDED cannot fix escalates.
func (s *Scheduler) eccAttempt(op sense.Op, srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, restore, golden []uint64, res *ScheduleResult, dirty *bool) (bool, error) {
	for try := 0; try <= s.Res.MaxRetries; try++ {
		if try > 0 {
			s.stats.Retries++
			res.Retries++
		}
		if *dirty && restore != nil {
			if err := s.hostWrite(*target, restore, bits, res); err != nil {
				return false, err
			}
		}
		r, err := s.nativeExec(op, srcs, bits, target)
		if err != nil {
			if errors.Is(err, backend.ErrActivationFault) {
				continue // nothing was sensed or written; reissue
			}
			return false, err
		}
		res.record(r)
		*dirty = true
		cost, err := s.Ctl.ECCProgram(*target, golden, bits, op, len(srcs))
		if err != nil {
			return false, err
		}
		res.Program.Emit(cost.Instr(*target))
		v, err := s.Ctl.CorrectOrEscalate(*target, bits, golden)
		if err != nil {
			return false, err
		}
		s.stats.EccDecodes++
		res.Program.Emit(v.Instr(*target))
		s.stats.EccCorrectedBits += int64(v.CorrectedBits)
		res.BitsCorrected += int64(v.CorrectedBits)
		if v.OK {
			res.Words = golden
			return true, nil
		}
		// Detected-uncorrectable (or a repair the cells would not hold):
		// no blind retry — the ladder's read-back rungs take over.
		s.stats.EccUncorrectables++
		return false, nil
	}
	return false, nil
}

// attempt is one rung of bounded retries: execute (natively or over the
// forced digital path), verify against golden, retire the destination on
// evidence of cell damage. It reports whether a verified result landed.
func (s *Scheduler) attempt(op sense.Op, srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, restore, golden []uint64, res *ScheduleResult, digital bool, dirty *bool) (bool, error) {
	for try := 0; try <= s.Res.MaxRetries; try++ {
		if try > 0 {
			s.stats.Retries++
			res.Retries++
		}
		if *dirty && restore != nil {
			// The accumulator operand was clobbered by a failed attempt;
			// rebuild it from the host-side checkpoint. If the row's cells
			// are stuck the restore is corrupted too — the next verify
			// attributes that to a write fault and retires the row.
			if err := s.hostWrite(*target, restore, bits, res); err != nil {
				return false, err
			}
		}
		exec := s.nativeExec
		if digital {
			exec = s.Ctl.ExecuteDigital
		}
		r, err := exec(op, srcs, bits, target)
		if err != nil {
			if errors.Is(err, backend.ErrActivationFault) {
				continue // nothing was sensed or written; reissue
			}
			return false, err
		}
		res.record(r)
		*dirty = true
		v, err := s.Ctl.VerifyAgainst(len(srcs), bits, *target, golden, r.Words)
		if err != nil {
			return false, err
		}
		s.stats.Verifies++
		res.Program.Emit(v.Instr(*target))
		if v.OK {
			res.Words = golden
			return true, nil
		}
		s.stats.BitsCorrected += int64(v.MismatchedBits)
		res.BitsCorrected += int64(v.MismatchedBits)
		if v.WriteFault {
			s.retireTarget(srcs, target)
		}
	}
	return false, nil
}

// chunked re-executes an OR as a chain of at-most-depth-operand links
// accumulating into *target. Every link is itself a fully resilient request
// (its own retries, further splits, inter and host rungs).
func (s *Scheduler) chunked(rows []memarch.RowAddr, bits int, target *memarch.RowAddr, restore []uint64, depth int, res *ScheduleResult, dirty *bool) (bool, error) {
	ops := rows
	acc := restore
	if restore != nil {
		// The accumulator rides along as the head of every link rather
		// than as a chain operand.
		trimmed := make([]memarch.RowAddr, 0, len(rows))
		for _, r := range rows {
			if r != *target {
				trimmed = append(trimmed, r)
			}
		}
		ops = trimmed
	}
	done := 0
	for done < len(ops) {
		var srcs []memarch.RowAddr
		var take int
		if acc == nil {
			take = len(ops)
			if take > depth {
				take = depth
			}
			srcs = append([]memarch.RowAddr(nil), ops[:take]...)
		} else {
			take = len(ops) - done
			if take > depth-1 {
				take = depth - 1
			}
			srcs = append([]memarch.RowAddr{*target}, ops[done:done+take]...)
		}
		words, err := s.request(sense.OpOR, srcs, bits, target, acc, res)
		if err != nil {
			if errors.Is(err, ErrResilienceExhausted) {
				*dirty = true
				return false, nil // let the outer rungs have a go
			}
			return false, err
		}
		acc = words
		done += take
	}
	res.Words = acc
	return true, nil
}

// hostAttempt is the last rung: read every operand over the DDR bus,
// compute on the host, write the verified result back — never wrong, never
// fast (exactly the bus traffic Pinatubo exists to avoid).
func (s *Scheduler) hostAttempt(srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, golden []uint64, res *ScheduleResult) (bool, error) {
	for _, a := range srcs {
		r, err := s.Ctl.ReadRow(a, bits)
		if err != nil {
			return false, err
		}
		res.record(r)
	}
	for try := 0; try <= s.Res.MaxRetries; try++ {
		if try > 0 {
			s.stats.Retries++
			res.Retries++
		}
		if err := s.hostWrite(*target, golden, bits, res); err != nil {
			return false, err
		}
		v, err := s.Ctl.VerifyAgainst(0, bits, *target, golden, golden)
		if err != nil {
			return false, err
		}
		s.stats.Verifies++
		res.Program.Emit(v.Instr(*target))
		if v.OK {
			res.Words = golden
			return true, nil
		}
		s.stats.BitsCorrected += int64(v.MismatchedBits)
		res.BitsCorrected += int64(v.MismatchedBits)
		if v.WriteFault {
			s.retireTarget(srcs, target)
		}
	}
	return false, nil
}

// hostWrite programs a row from the host, charging the bus transfer.
func (s *Scheduler) hostWrite(addr memarch.RowAddr, words []uint64, bits int, res *ScheduleResult) error {
	r, err := s.Ctl.WriteRowFromHost(addr, words, bits)
	if err != nil {
		return err
	}
	res.Program.Emit(r.Instr())
	return nil
}

// retireTarget swaps a damaged destination row for a fresh one through the
// Remap hook, patching any self-reference in srcs. With no hook — or no
// spare rows left — the ladder keeps going with the damaged row and fails
// loudly at the end rather than returning wrong bits.
func (s *Scheduler) retireTarget(srcs []memarch.RowAddr, target *memarch.RowAddr) {
	if s.Remap == nil {
		return
	}
	fresh, err := s.Remap(*target)
	if err != nil {
		return
	}
	s.stats.RowsRetired++
	old := *target
	*target = fresh
	for i := range srcs {
		if srcs[i] == old {
			srcs[i] = fresh
		}
	}
}
