// Package sense is the word-level model of Pinatubo's modified sense
// amplifier array. It sits between the analog CSA model and the memory
// architecture: the controller selects an operation (which, physically,
// selects a reference circuit in every SA), the wordline drivers open the
// operand rows, and the SA array resolves one output bit per bitline.
//
// The package enforces the paper's operand-count rules per technology
// (n-row OR up to the sensing-margin depth, AND/XOR exactly 2 rows, INV 1
// row) and, when analog checking is enabled, cross-validates a sample of
// bit positions through the analog current-comparison path on every
// operation, so a regression in reference placement shows up in ordinary
// use, not only in the analog unit tests.
package sense

import (
	"fmt"
	"math/rand/v2"

	"pinatubo/internal/analog"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/nvm"
)

// Op is a bulk bitwise operation code. It doubles as the SA mode selector:
// the memory controller writes it to the mode register, which switches the
// SA's reference circuit (or, for XOR/INV, its add-on output path).
type Op int

const (
	OpRead Op = iota // normal read (single row)
	OpAND            // 2-row AND via shifted reference
	OpOR             // n-row OR via shifted reference
	OpXOR            // 2-row XOR via hold capacitor, two micro-steps
	OpINV            // 1-row inversion from the latch differential
)

// String returns the mnemonic used in the paper.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpAND:
		return "AND"
	case OpOR:
		return "OR"
	case OpXOR:
		return "XOR"
	case OpINV:
		return "INV"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// SenseSteps returns how many sequential SA sensing steps the operation
// needs per column group: XOR takes two micro-steps, everything else one.
func (o Op) SenseSteps() int {
	if o == OpXOR {
		return analog.XORSteps
	}
	return 1
}

// OperandError reports an operand-count rule violation.
type OperandError struct {
	Op   Op
	Tech nvm.Tech
	N    int // offending operand count
	Max  int // maximum allowed (0 if the op has a fixed count instead)
	Want int // required exact count (0 if a range applies)
}

func (e *OperandError) Error() string {
	if e.Want != 0 {
		return fmt.Sprintf("sense: %s on %s requires exactly %d operand row(s), got %d",
			e.Op, e.Tech, e.Want, e.N)
	}
	return fmt.Sprintf("sense: %s on %s supports 2..%d operand rows, got %d",
		e.Op, e.Tech, e.Max, e.N)
}

// Array models the sense amplifiers of one MAT (or, because chips and MATs
// operate in lock step, of the whole rank slice being sensed).
type Array struct {
	params nvm.Params
	cfg    analog.SenseConfig
	// checkEvery > 0 enables analog cross-checking of that many sampled
	// bit positions per ComputeWords call.
	checkEvery int
	// rng draws the sample positions from pcg, which seeds in O(1), so
	// Reset can rewind the stream on every pooled-sandbox get.
	pcg *rand.PCG
	rng *rand.Rand
	// cells is the analog-check sample scratch, reused so steady-state
	// operations allocate nothing for the cross-check.
	cells []bool
	// maxOR memoises the OR depth search: cfg and params are immutable
	// after NewArray, so the margin sweep is done once, not per operation
	// (it was the hottest non-data work on the cached execution path).
	maxOR int
}

// NewArray builds an SA array for the technology. Analog cross-checking
// samples 16 bit positions per operation by default; pass checkBits = 0 to
// disable (e.g. in throughput benchmarks) or another count to tune it.
func NewArray(p nvm.Params, cfg analog.SenseConfig, checkBits int) (*Array, error) {
	if !p.Tech.Resistive() {
		return nil, analog.ErrNotResistive
	}
	depth, err := analog.MaxORRows(cfg, p, p.MaxOpenRows)
	if err != nil {
		// Unreachable: only non-resistive techs error, rejected above.
		return nil, err
	}
	if depth > p.MaxOpenRows {
		depth = p.MaxOpenRows
	}
	pcg := rand.NewPCG(sampleSeed, 0)
	return &Array{
		params:     p,
		cfg:        cfg,
		checkEvery: checkBits,
		pcg:        pcg,
		rng:        rand.New(pcg),
		maxOR:      depth,
	}, nil
}

// sampleSeed fixes the analog-check sampling stream, so every run picks
// the same sample positions.
const sampleSeed = 0x9144

// MaxORRows returns the operand-row limit for OR on this array: the smaller
// of the architectural cap and the analog sensing-margin depth, memoised at
// construction (cfg and params never change afterwards).
func (a *Array) MaxORRows() int { return a.maxOR }

// ValidateOperands checks the operand-row count rules for op.
func (a *Array) ValidateOperands(op Op, n int) error {
	switch op {
	case OpRead, OpINV:
		if n != 1 {
			return &OperandError{Op: op, Tech: a.params.Tech, N: n, Want: 1}
		}
	case OpAND, OpXOR:
		if n != 2 {
			return &OperandError{Op: op, Tech: a.params.Tech, N: n, Want: 2}
		}
	case OpOR:
		if max := a.MaxORRows(); n < 2 || n > max {
			return &OperandError{Op: op, Tech: a.params.Tech, N: n, Max: max}
		}
	default:
		return fmt.Errorf("sense: unknown op %d", int(op))
	}
	return nil
}

// Reset restores the array's deterministic analog-check sampling stream
// to its NewArray state (pooled shard sandboxes reset through here).
func (a *Array) Reset() {
	a.pcg.Seed(sampleSeed, 0)
}

// ComputeWords resolves the operation over word-parallel operand rows and
// returns the result words. Every row must have the same length. The word
// math is the functional model; if analog checking is enabled, sampled bit
// positions are re-resolved through the analog current comparison and any
// disagreement panics (it would be a modelling bug, never a data error).
func (a *Array) ComputeWords(op Op, rows [][]uint64) ([]uint64, error) {
	if len(rows) == 0 {
		return nil, a.ValidateOperands(op, 0)
	}
	out := make([]uint64, len(rows[0]))
	if err := a.ComputeWordsInto(out, op, rows); err != nil {
		return nil, err
	}
	return out, nil
}

// ComputeWordsInto is ComputeWords resolving into a caller-owned buffer:
// dst must hold exactly len(rows[0]) words and must not share memory with
// any operand row (the OR kernel accumulates row-major, so an aliased row
// would be re-read after it was overwritten). A steady-state call
// allocates nothing (the analog cross-check included). This is the
// zero-alloc hot path the controller's cached executions and the voted
// sensing loop run on.
func (a *Array) ComputeWordsInto(dst []uint64, op Op, rows [][]uint64) error {
	if err := a.ValidateOperands(op, len(rows)); err != nil {
		return err
	}
	width := len(rows[0])
	for i, r := range rows[1:] {
		if len(r) != width {
			return fmt.Errorf("sense: row %d has %d words, row 0 has %d", i+1, len(r), width)
		}
	}
	if len(dst) != width {
		return fmt.Errorf("sense: destination has %d words, rows have %d", len(dst), width)
	}
	for i, r := range rows {
		if bitvec.Overlaps(dst, r) {
			return fmt.Errorf("sense: destination overlaps operand row %d", i)
		}
	}
	out := dst
	switch op {
	case OpRead:
		copy(out, rows[0])
	case OpINV:
		for i, w := range rows[0] {
			out[i] = ^w
		}
	case OpAND:
		for i := range out {
			out[i] = rows[0][i] & rows[1][i]
		}
	case OpXOR:
		for i := range out {
			out[i] = rows[0][i] ^ rows[1][i]
		}
	case OpOR:
		bitvec.OrWordsInto(out, rows)
	}
	if a.checkEvery > 0 && width > 0 {
		a.analogCheck(op, rows, out)
	}
	return nil
}

// analogCheck re-resolves sampled bit positions through the analog path.
// Panics if the analog and digital results diverge — the cross-model
// consistency assertion this sampling exists to enforce.
func (a *Array) analogCheck(op Op, rows [][]uint64, out []uint64) {
	totalBits := len(out) * 64
	if cap(a.cells) < len(rows) {
		a.cells = make([]bool, len(rows))
	}
	for k := 0; k < a.checkEvery; k++ {
		pos := a.rng.IntN(totalBits)
		wi, bi := pos/64, uint(pos%64)
		cells := a.cells[:len(rows)]
		for r := range rows {
			cells[r] = rows[r][wi]&(1<<bi) != 0
		}
		want := out[wi]&(1<<bi) != 0
		var got bool
		switch op {
		case OpRead:
			got = analog.SenseRead(a.cfg, a.params.Cell, cells[0])
		case OpINV:
			got = analog.SenseINV(a.cfg, a.params.Cell, cells[0])
		case OpAND:
			got = analog.SenseAND(a.cfg, a.params.Cell, cells)
		case OpXOR:
			got = analog.SenseXOR(a.cfg, a.params.Cell, cells[0], cells[1])
		case OpOR:
			got = analog.SenseOR(a.cfg, a.params.Cell, cells)
		}
		if got != want {
			panic(fmt.Sprintf(
				"sense: analog/functional divergence: %s bit %d: analog %v, functional %v",
				op, pos, got, want))
		}
	}
}

// Params returns the technology parameters of the array.
func (a *Array) Params() nvm.Params { return a.params }
