// Package dram implements the in-DRAM processing-using-memory backend
// behind the backend.Backend seam: bulk bitwise operations computed with
// charge sharing instead of resistive sensing, following the RowClone /
// Ambit line of work (see PAPERS.md). The primitives are:
//
//   - TRA (triple-row activation): simultaneously activating three rows
//     makes each bitline resolve to the majority of the three cells, so
//     MAJ(a,b,0) = a AND b and MAJ(a,b,1) = a OR b. TRA is
//     destructive-restore: after the sense, all three rows hold the
//     majority value.
//   - DCC (dual-contact cell) row: one row per subarray whose cells
//     connect to both the bitline and its complement, so copying a row
//     into it through the negated port yields NOT.
//   - RowClone AAP (activate-activate-precharge): intra-subarray bulk
//     copy through the sense amplifiers and write drivers, used to stage
//     operands into the compute group without touching the DDR bus.
//
// XOR is synthesized from MAJ and NOT — a XOR b = MAJ(a∧¬b, ¬a∧b, 1) —
// and XNOR (the BNN building block) the same way from the complementary
// partial terms; see LowerXNOR.
//
// Because TRA is destructive, operands are never computed on in place:
// every operation first AAP-stages its operands into a designated
// compute-row group at the top of each subarray (T0..T3, the DCC row, and
// two control rows C0/C1 pre-initialised to all-zeros/all-ones). The
// backend reserves these rows through Caps().ComputeRows, so the
// allocator never hands them out. Their contents are bookkeeping internal
// to one lowering — the functional result of the operation depends only
// on the operand rows — so the simulator models them virtually: commands
// are emitted and priced against their addresses, but no memory row is
// materialised for them.
package dram

import (
	"fmt"

	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/ddr"
	"pinatubo/internal/energy"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// ComputeRows is how many rows at the top of every subarray the backend
// reserves (below the scheduler's scratch row): the TRA group T0/T1/T2,
// the spill row T3 XOR needs for its first partial term, the dual-contact
// NOT row, and the all-zeros/all-ones control rows.
const ComputeRows = 7

// Offsets of the compute rows from the end of the subarray. Row
// RowsPerSubarray-1 is the scheduler's scratch row; the compute group
// sits directly below it.
const (
	offT0  = 2
	offT1  = 3
	offT2  = 4
	offT3  = 5
	offDCC = 6
	offC0  = 7
	offC1  = 8
)

// maxORRows is the one-step OR depth: one TRA combines exactly two
// operands with a control row, so deep ORs chain pairwise (the runtime
// scheduler already does this for STT-MRAM, whose limit is also 2).
const maxORRows = 2

// Backend lowers intra-subarray requests to TRA/AAP command sequences.
type Backend struct {
	p nvm.Params
}

// New builds the DRAM backend. The geometry must leave room for the
// compute-row group, the scheduler's scratch row and at least two data
// rows per subarray.
func New(p nvm.Params, geo memarch.Geometry) (*Backend, error) {
	if p.Tech != nvm.DRAM {
		return nil, fmt.Errorf("dram: backend requires DRAM parameters, got %s", p.Tech)
	}
	if min := ComputeRows + 3; geo.RowsPerSubarray < min {
		return nil, fmt.Errorf("dram: %d rows per subarray cannot hold the %d compute rows, the scratch row and data (need >= %d)",
			geo.RowsPerSubarray, ComputeRows, min)
	}
	return &Backend{p: p}, nil
}

// Params returns the DRAM parameter set.
func (b *Backend) Params() nvm.Params { return b.p }

// Caps: pairwise OR only (one TRA per combine), no voted sensing (a TRA
// is destructive, so an operand set cannot be re-sensed), seven reserved
// compute rows, and no resistive fault model.
func (b *Backend) Caps() backend.Caps {
	return backend.Caps{
		MaxORRows:      maxORRows,
		VotedSensing:   false,
		ComputeRows:    ComputeRows,
		FaultInjection: false,
	}
}

// ValidateOperands applies the TRA operand rules: READ/NOT one operand,
// AND/XOR/OR exactly two.
func (b *Backend) ValidateOperands(op sense.Op, n int) error {
	switch op {
	case sense.OpRead, sense.OpINV:
		if n != 1 {
			return &sense.OperandError{Op: op, Tech: b.p.Tech, N: n, Want: 1}
		}
	case sense.OpAND, sense.OpXOR:
		if n != 2 {
			return &sense.OperandError{Op: op, Tech: b.p.Tech, N: n, Want: 2}
		}
	case sense.OpOR:
		if n < 2 || n > maxORRows {
			return &sense.OperandError{Op: op, Tech: b.p.Tech, N: n, Max: maxORRows}
		}
	default:
		return fmt.Errorf("dram: unknown op %d", int(op))
	}
	return nil
}

// ComputeInto resolves op functionally. DRAM compute is fully digital at
// the model level — no stochastic sensing stream — so this is plain word
// math, shared with LowerIntra.
func (b *Backend) ComputeInto(dst []uint64, op sense.Op, rows [][]uint64) error {
	if err := b.ValidateOperands(op, len(rows)); err != nil {
		return err
	}
	combine(dst, op, rows)
	return nil
}

// Reset is a no-op: the backend keeps no sampling or scratch state.
func (b *Backend) Reset() {}

// combine fills dst with the result of op over the operand rows. Callers
// validated the operand count. Panics on an op outside the sense.Op set —
// an exhaustiveness bug when the op set grows, never a data condition
// (both callers validate first).
func combine(dst []uint64, op sense.Op, rows [][]uint64) {
	a := rows[0]
	switch op {
	case sense.OpRead:
		copy(dst, a[:len(dst)])
	case sense.OpINV:
		for i := range dst {
			dst[i] = ^a[i]
		}
	case sense.OpAND:
		for i := range dst {
			dst[i] = a[i] & rows[1][i]
		}
	case sense.OpOR:
		bitvec.OrWordsInto(dst, rows)
	case sense.OpXOR:
		for i := range dst {
			dst[i] = a[i] ^ rows[1][i]
		}
	default:
		panic(fmt.Sprintf("dram: combine of unvalidated op %d", int(op)))
	}
}

// lowering carries the emission state of one request.
type lowering struct {
	p      nvm.Params
	cmds   []ddr.Cmd
	en     *energy.Meter
	base   memarch.RowAddr // subarray carrier; Row is overridden per command
	bits   int
	groups int
	per    int // rows per subarray
}

func (l *lowering) row(off int) memarch.RowAddr {
	a := l.base
	a.Row = l.per - off
	return a
}

// open activates one row and senses every column group, leaving the row's
// contents amplified in the SAs.
func (l *lowering) open(a memarch.RowAddr) {
	e := l.p.Energy
	fbits := float64(l.bits)
	l.cmds = append(l.cmds, ddr.Cmd{Kind: ddr.CmdAct, Addr: a})
	for g := 0; g < l.groups; g++ {
		l.cmds = append(l.cmds, ddr.Cmd{Kind: ddr.CmdSense, Addr: a})
	}
	l.en.Add(energy.DRAMArray, fbits*e.ActPerBit)
	l.en.Add(energy.LWLDriver, e.LWLPerAct)
	l.en.Add(energy.SenseAmp, fbits*e.SensePerBit)
}

// aap is RowClone's activate-activate-precharge intra-subarray copy: open
// src, feed the SA contents into dst's cells through the write drivers,
// precharge. Copies into the DCC row latch through its negated port, so
// aap(src, DCC) stores NOT src — same commands, same cost.
func (l *lowering) aap(src, dst memarch.RowAddr) {
	l.open(src)
	l.cmds = append(l.cmds, ddr.Cmd{Kind: ddr.CmdWBack, Addr: dst})
	l.en.Add(energy.WriteDriver, float64(l.bits)*l.p.Energy.WritePerBit)
	l.pre(src)
}

func (l *lowering) pre(a memarch.RowAddr) {
	l.cmds = append(l.cmds, ddr.Cmd{Kind: ddr.CmdPre, Addr: a})
}

// tra issues the triple-row activation over T0/T1/T2 and senses every
// column group: the SAs resolve and restore MAJ(T0,T1,T2). When close is
// set the group is precharged afterwards (intermediate step); otherwise
// the result stays in the SAs for the controller's write-back.
func (l *lowering) tra(close bool) {
	e := l.p.Energy
	fbits := float64(l.bits)
	t0 := l.row(offT0)
	l.cmds = append(l.cmds, ddr.Cmd{Kind: ddr.CmdActTRA, Addr: t0})
	for g := 0; g < l.groups; g++ {
		l.cmds = append(l.cmds, ddr.Cmd{Kind: ddr.CmdSense, Addr: t0})
	}
	// Three wordlines fire and three rows' cells are restored; the sense
	// itself carries the three-open-rows adder, like a depth-3 NVM sense.
	l.en.Add(energy.DRAMArray, 3*fbits*e.ActPerBit)
	l.en.Add(energy.LWLDriver, 3*e.LWLPerAct)
	l.en.Add(energy.SenseAmp, fbits*(e.SensePerBit+3*e.SenseRowAdd))
	if close {
		l.pre(t0)
	}
}

// LowerIntra stages the operands into the compute group and computes
// through TRA / the DCC row. The final activation's result is left in the
// SAs (rows open) for the controller's generic write-back and precharge.
func (b *Backend) LowerIntra(req *backend.IntraRequest, cmds []ddr.Cmd) ([]ddr.Cmd, error) {
	if req.Inj != nil {
		return nil, fmt.Errorf("dram: fault injection models resistive sensing margins and does not apply to the DRAM backend")
	}
	if err := b.ValidateOperands(req.Op, len(req.Srcs)); err != nil {
		return nil, err
	}
	per := req.Geo.RowsPerSubarray
	for _, s := range req.Srcs {
		if s.Row >= per-1-ComputeRows && s.Row < per-1 {
			return nil, fmt.Errorf("dram: operand row %d lies in the reserved compute-row group [%d,%d)",
				s.Row, per-1-ComputeRows, per-1)
		}
	}
	l := &lowering{
		p:      b.p,
		cmds:   cmds,
		en:     req.Energy,
		base:   req.Srcs[0],
		bits:   req.Bits,
		groups: backend.SenseGroups(req.Geo, req.Bits),
		per:    per,
	}

	switch req.Op {
	case sense.OpRead:
		// A plain open: the row's contents are in the SAs.
		l.open(req.Srcs[0])
	case sense.OpINV:
		// Copy through the DCC row's negated port, then open the DCC row.
		l.aap(req.Srcs[0], l.row(offDCC))
		l.open(l.row(offDCC))
	case sense.OpAND:
		l.stageTRA(req.Srcs[0], req.Srcs[1], offC0) // MAJ(a,b,0) = a AND b
		l.tra(false)
	case sense.OpOR:
		l.stageTRA(req.Srcs[0], req.Srcs[1], offC1) // MAJ(a,b,1) = a OR b
		l.tra(false)
	case sense.OpXOR:
		l.lowerXorLike(req.Srcs[0], req.Srcs[1], false)
	default:
		return nil, fmt.Errorf("dram: unknown op %d", int(req.Op))
	}

	combine(req.Out, req.Op, req.Rows)
	return l.cmds, nil
}

// stageTRA copies the two operands and a control row into the TRA group.
func (l *lowering) stageTRA(a, b memarch.RowAddr, ctrlOff int) {
	l.aap(a, l.row(offT0))
	l.aap(b, l.row(offT1))
	l.aap(l.row(ctrlOff), l.row(offT2))
}

// lowerXorLike synthesizes XOR (or XNOR when invert is set) from MAJ and
// NOT: two AND partial terms, OR-ed by a final MAJ(·,·,1).
//
//	XOR  = (a ∧ ¬b) ∨ (¬a ∧ b)
//	XNOR = (a ∧ b)  ∨ (¬a ∧ ¬b)
//
// TRA's destructive restore is what makes this work in-array: after each
// intermediate TRA the whole group holds the partial term, so T0 can be
// spilled to T3 (first term) or simply left in place (second term).
func (l *lowering) lowerXorLike(a, b memarch.RowAddr, invert bool) {
	dcc := l.row(offDCC)
	// First partial term into T0..T2, spilled to T3.
	if invert {
		l.stageTRA(a, b, offC0) // a ∧ b
	} else {
		l.aap(b, dcc) // dcc = ¬b
		l.aap(a, l.row(offT0))
		l.aap(dcc, l.row(offT1))
		l.aap(l.row(offC0), l.row(offT2)) // a ∧ ¬b
	}
	l.tra(true)
	l.aap(l.row(offT0), l.row(offT3))
	// Second partial term into T0..T2.
	l.aap(a, dcc) // dcc = ¬a
	l.aap(dcc, l.row(offT0))
	if invert {
		l.aap(b, dcc) // dcc = ¬b
		l.aap(dcc, l.row(offT1))
	} else {
		l.aap(b, l.row(offT1))
	}
	l.aap(l.row(offC0), l.row(offT2))
	l.tra(true)
	// OR the two terms: T0 holds the second term, T1 gets the spilled
	// first term, T2 the all-ones control row.
	l.aap(l.row(offT3), l.row(offT1))
	l.aap(l.row(offC1), l.row(offT2))
	l.tra(false)
}

// LowerXNOR lowers the XNOR of req's two operands — the BNN XNOR-popcount
// building block — through the same MAJ/NOT synthesis as XOR. It is not
// reachable through sense.Op (the public op set matches the paper's);
// workloads that need XNOR call it directly. Contract as LowerIntra:
// result in req.Out, final activation left open for write-back.
func (b *Backend) LowerXNOR(req *backend.IntraRequest, cmds []ddr.Cmd) ([]ddr.Cmd, error) {
	if req.Inj != nil {
		return nil, fmt.Errorf("dram: fault injection models resistive sensing margins and does not apply to the DRAM backend")
	}
	if len(req.Srcs) != 2 || len(req.Rows) != 2 {
		return nil, fmt.Errorf("dram: XNOR requires exactly 2 operands, got %d", len(req.Srcs))
	}
	l := &lowering{
		p:      b.p,
		cmds:   cmds,
		en:     req.Energy,
		base:   req.Srcs[0],
		bits:   req.Bits,
		groups: backend.SenseGroups(req.Geo, req.Bits),
		per:    req.Geo.RowsPerSubarray,
	}
	l.lowerXorLike(req.Srcs[0], req.Srcs[1], true)
	for i := range req.Out {
		req.Out[i] = ^(req.Rows[0][i] ^ req.Rows[1][i])
	}
	return l.cmds, nil
}
