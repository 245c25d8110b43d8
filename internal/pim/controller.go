// Package pim implements the Pinatubo memory controller — the paper's core
// contribution. Given a bulk bitwise operation over operand rows, the
// controller classifies it by operand placement (intra-subarray,
// inter-subarray, or inter-bank, Section 4.1), lowers it to a DDR command
// sequence (mode-register setup, LWL-latch multi-row activation, sensing
// steps, in-place writeback), executes it functionally against the memory
// model, and accounts latency and energy.
package pim

import (
	"errors"
	"fmt"

	"pinatubo/internal/analog"
	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/ddr"
	"pinatubo/internal/dram"
	"pinatubo/internal/ecc"
	"pinatubo/internal/energy"
	"pinatubo/internal/fault"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// Class is the placement class of an operation.
type Class int

const (
	// ClassIntraSub: all operand rows share a subarray; the modified SA
	// computes the result in one multi-row activation.
	ClassIntraSub Class = iota
	// ClassInterSub: operands share a bank but not a subarray; the add-on
	// logic at the global row buffer combines serially-read rows.
	ClassInterSub
	// ClassInterBank: operands share a rank but not a bank; the add-on
	// logic at the I/O buffer combines them.
	ClassInterBank
)

// String names the class as in the paper.
func (c Class) String() string {
	switch c {
	case ClassIntraSub:
		return "intra-subarray"
	case ClassInterSub:
		return "inter-subarray"
	case ClassInterBank:
		return "inter-bank"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ErrCrossRank is returned for operand sets spanning ranks or channels:
// Pinatubo does not operate across chips — the paper relies on the
// PIM-aware memory mapping to avoid such placements.
var ErrCrossRank = errors.New("pim: operands span ranks or channels; not supported (remap or fall back to the CPU)")

// ErrSharedRow is returned when two operands name the same physical row.
var ErrSharedRow = errors.New("pim: operands share a physical row; Pinatubo requires distinct rows")

// InterORLimit caps the operand count of a single inter-subarray/bank OR
// request; longer chains are split by the runtime scheduler.
const InterORLimit = 256

// Result describes one executed operation.
type Result struct {
	Op    sense.Op
	Class Class
	Rows  int // operand row count
	Bits  int // vector length in bits
	// Seconds is the command-sequence latency on one channel.
	Seconds float64
	// Energy is the per-component energy of the operation.
	Energy energy.Meter
	// Commands is the DDR command sequence the controller issued.
	Commands []ddr.Cmd
	// Words is the result vector (bitvec.WordsFor(Bits) words).
	Words []uint64
	// Voted is the replica count of a majority-voted execution (0 for a
	// plain request). Outvoted counts the bit positions where the replica
	// senses disagreed and the majority overrode the minority.
	Voted    int
	Outvoted int64
}

// Counters accumulates the controller's lifetime hardware activity.
type Counters struct {
	Ops         map[Class]int64 // completed ops by placement class
	Activations int64           // row activations (ACT + ACT-LATCH)
	SenseSteps  int64           // column-group sensing steps
	Writebacks  int64           // cell-array writes (WBACK / WR)
	BusBits     int64           // data bits that crossed the DDR bus
}

// Controller drives one PIM-extended main memory. The technology-specific
// part — how a co-located operand set is computed inside the array — lives
// behind the backend seam; the controller owns placement classification,
// the digital inter-subarray/bank datapath, write-back routing, caching,
// counters and ECC, which are technology-generic.
type Controller struct {
	mem      *memarch.Memory
	be       backend.Backend
	bus      ddr.BusParams
	mrs      ddr.ModeRegisters
	counters Counters
	// inj, when attached, corrupts sensing and cell writes — see
	// internal/fault. nil means the ideal-hardware model.
	inj *fault.Injector
	// wearShare, when set, reports how many replicas of a logical row the
	// given physical row stores; programs of such rows accrue 1/share of a
	// wear event each (internal/fault.RecordWriteShared). nil or a return
	// of <= 1 means normal wear.
	wearShare func(memarch.RowAddr) int
	// codec and checks model the in-array SECDED spare columns — see ecc.go.
	// codec nil means no ECC; checks maps encoded row address to that row's
	// stored check bits.
	codec  *ecc.Codec
	checks map[uint64]eccEntry

	// cache memoises the pure part of execute() — placement class, command
	// sequence, latency, energy, counter deltas — keyed by the operation
	// shape (see cache.go). cacheOn gates lookups; the cache itself engages
	// only on the ideal-hardware path (no injector, no ECC codec), where an
	// execution's non-data outputs are a pure function of the key.
	cache   *cmdstream.Cache
	cacheOn bool
	keyBuf  cmdstream.KeyBuffer
	// rowsScratch is reused for the per-execute operand row-slice header
	// list, so steady-state executions of a fixed arity allocate nothing
	// for it.
	rowsScratch [][]uint64
	// voteOuts holds the per-replica sensing buffers of voted executions,
	// reused so the R sensing passes of a steady-state voted request
	// allocate nothing.
	voteOuts [][]uint64
	// eccData / eccCheck are the ECC verification path's decode scratch:
	// the sensed data and check words live only for the decode, so the
	// steady-state verify-every-op loop reuses them.
	eccData  []uint64
	eccCheck []uint64
}

// scratchWords returns buf resized to exactly n words (growing its backing
// storage if needed), for scratch that is fully overwritten before use.
func scratchWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// voteScratch returns r sensing buffers of exactly w words each, backed by
// reused storage.
func (c *Controller) voteScratch(r, w int) [][]uint64 {
	if cap(c.voteOuts) < r {
		grown := make([][]uint64, r)
		copy(grown, c.voteOuts[:cap(c.voteOuts)])
		c.voteOuts = grown
	}
	outs := c.voteOuts[:r]
	for i := range outs {
		if cap(outs[i]) < w {
			outs[i] = make([]uint64, w)
		}
		outs[i] = outs[i][:w]
	}
	c.voteOuts = outs
	return outs
}

// NewController builds a controller over mem, selecting the compute
// backend from the memory's technology: the modified-SA backend for the
// resistive NVMs, the triple-row-activation backend for DRAM. checkBits
// configures the per-op analog cross-check sample of the SA model (0
// disables; ignored by the DRAM backend, whose compute is digital).
func NewController(mem *memarch.Memory, checkBits int) (*Controller, error) {
	be, err := defaultBackend(mem, checkBits)
	if err != nil {
		return nil, err
	}
	return NewControllerWith(mem, be)
}

// defaultBackend maps a technology to its compute backend.
func defaultBackend(mem *memarch.Memory, checkBits int) (backend.Backend, error) {
	p := mem.Tech()
	switch p.Tech {
	case nvm.PCM, nvm.STTMRAM, nvm.ReRAM:
		return backend.NewSenseAmp(p, analog.DefaultSenseConfig(), checkBits)
	case nvm.DRAM:
		return dram.New(p, mem.Geometry())
	default:
		return nil, fmt.Errorf("pim: no compute backend for technology %s", p.Tech)
	}
}

// NewControllerWith builds a controller over mem with an explicit compute
// backend — the pluggable entry point behind NewController's selection.
func NewControllerWith(mem *memarch.Memory, be backend.Backend) (*Controller, error) {
	if be == nil {
		return nil, errors.New("pim: nil compute backend")
	}
	return &Controller{
		mem:      mem,
		be:       be,
		bus:      ddr.DefaultBus(),
		counters: Counters{Ops: make(map[Class]int64)},
	}, nil
}

// Backend returns the controller's compute backend.
func (c *Controller) Backend() backend.Backend { return c.be }

// AttachInjector wires a fault injector into the controller's sensing and
// cell-write paths. Passing nil restores the ideal-hardware model.
func (c *Controller) AttachInjector(in *fault.Injector) { c.inj = in }

// SetProgramCache turns the lowered-program cache on or off. Entries
// survive a disable: the cached views are pure functions of the
// operation shape, so re-enabling may serve them again.
func (c *Controller) SetProgramCache(enabled bool) {
	if enabled && c.cache == nil {
		c.cache = cmdstream.NewCache()
	}
	c.cacheOn = enabled
}

// ProgramCacheEnabled reports whether cache lookups are active.
func (c *Controller) ProgramCacheEnabled() bool { return c.cacheOn }

// InvalidateProgramCache drops every cached program. The System calls
// this whenever its row layout moves (layoutGen bumps: frees, retire
// remaps, replica teardowns), so a cached program can never outlive the
// layout it was lowered against.
func (c *Controller) InvalidateProgramCache() {
	if c.cache != nil {
		c.cache.Invalidate()
	}
}

// CacheStats snapshots the program cache's traffic counters.
func (c *Controller) CacheStats() cmdstream.CacheStats {
	if c.cache == nil {
		return cmdstream.CacheStats{}
	}
	return c.cache.Stats()
}

// Injector returns the attached fault injector (nil when none).
func (c *Controller) Injector() *fault.Injector { return c.inj }

// SetWearSpread installs the replica-share lookup consulted on every cell
// write: rows reported as storing one of R replicas age R× slower per
// logical write. Passing nil restores normal wear.
func (c *Controller) SetWearSpread(f func(memarch.RowAddr) int) { c.wearShare = f }

// AbsorbCounters folds another controller's accumulated hardware activity
// into this one (integer adds — exact under any merge order). The batch
// executor merges per-shard controller counters through here.
func (c *Controller) AbsorbCounters(o Counters) {
	for k, v := range o.Ops {
		if c.counters.Ops == nil {
			c.counters.Ops = make(map[Class]int64)
		}
		c.counters.Ops[k] += v
	}
	c.counters.Activations += o.Activations
	c.counters.SenseSteps += o.SenseSteps
	c.counters.Writebacks += o.Writebacks
	c.counters.BusBits += o.BusBits
}

// ResetForReuse restores the controller to its just-built state so a
// pooled shard sandbox is indistinguishable from a fresh one: counters,
// mode registers, ECC check-bit state, the program-cache traffic
// counters and the SA model's sampling stream all return to their New
// values. Cached lowered programs deliberately survive — they are pure
// functions of operand addresses and geometry, so a reused sandbox
// replaying a same-shaped window hits instead of re-lowering. The
// attached injector and codec stay attached (the owning System resets
// the injector itself).
func (c *Controller) ResetForReuse() {
	c.counters = Counters{Ops: make(map[Class]int64)}
	c.mrs = ddr.ModeRegisters{}
	if c.checks != nil {
		c.checks = make(map[uint64]eccEntry)
	}
	if c.cache != nil {
		c.cache.ResetStats()
	}
	c.be.Reset()
}

// Counters returns a snapshot of the accumulated hardware activity.
func (c *Controller) Counters() Counters {
	out := c.counters
	out.Ops = make(map[Class]int64, len(c.counters.Ops))
	for k, v := range c.counters.Ops {
		out.Ops[k] = v
	}
	return out
}

// tally folds a completed command sequence into the counters.
func (c *Controller) tally(class Class, cmds []ddr.Cmd) {
	act, senseSteps, wb, bus := countersFor(cmds)
	c.tallyDeltas(class, act, senseSteps, wb, bus)
}

// countersFor derives the hardware-counter deltas of a command sequence.
func countersFor(cmds []ddr.Cmd) (act, senseSteps, wb, bus int64) {
	for _, cmd := range cmds {
		switch cmd.Kind {
		case ddr.CmdAct, ddr.CmdActLatch:
			act++
		case ddr.CmdActTRA:
			// A triple-row activation fires three wordlines in one command.
			act += 3
		case ddr.CmdSense:
			senseSteps++
		case ddr.CmdWBack, ddr.CmdWr:
			wb++
		default:
			// MRS, precharge, moves and reads don't feed these counters
			// (reads are tallied as BusBits below).
		}
		if cmd.Kind == ddr.CmdRd || cmd.Kind == ddr.CmdWr {
			bus += int64(cmd.Bits)
		}
	}
	return act, senseSteps, wb, bus
}

// tallyDeltas applies precomputed counter deltas (shared by the fresh and
// cached execution paths, so both leave identical counters).
func (c *Controller) tallyDeltas(class Class, act, senseSteps, wb, bus int64) {
	c.counters.Ops[class]++
	c.counters.Activations += act
	c.counters.SenseSteps += senseSteps
	c.counters.Writebacks += wb
	c.counters.BusBits += bus
}

// Memory returns the controlled memory.
func (c *Controller) Memory() *memarch.Memory { return c.mem }

// Bus returns the DDR bus parameters the controller prices transfers with,
// so trace consumers (the channel scheduler) can cost commands identically.
func (c *Controller) Bus() ddr.BusParams { return c.bus }

// MaxORRows returns the one-step OR operand limit of the technology
// (sensing margin and architectural cap combined).
func (c *Controller) MaxORRows() int { return c.be.Caps().MaxORRows }

// ModeRegister returns the current value of the PIM configuration register.
// Panics only if the built-in PIMRegister index is rejected — a constants
// bug, never a runtime condition.
func (c *Controller) ModeRegister() ddr.MR4 {
	v, err := c.mrs.Read(ddr.PIMRegister)
	if err != nil {
		panic(err) // PIMRegister is a valid constant index
	}
	return ddr.MR4(v)
}

// Classify determines the placement class of an operand set.
func (c *Controller) Classify(srcs []memarch.RowAddr) (Class, error) {
	if len(srcs) == 0 {
		return 0, errors.New("pim: no operand rows")
	}
	geo := c.mem.Geometry()
	for _, a := range srcs {
		if !geo.Valid(a) {
			return 0, fmt.Errorf("pim: operand address %v outside geometry", a)
		}
	}
	if !memarch.DistinctRows(geo, srcs...) {
		return 0, fmt.Errorf("pim: classifying %d operand rows: %w", len(srcs), ErrSharedRow)
	}
	switch {
	case memarch.SameSubarray(srcs...):
		return ClassIntraSub, nil
	case memarch.SameBank(srcs...):
		return ClassInterSub, nil
	case memarch.SameRank(srcs...):
		return ClassInterBank, nil
	default:
		return 0, fmt.Errorf("pim: classifying %d operand rows: %w", len(srcs), ErrCrossRank)
	}
}

// validateOperandCount applies the per-class operand rules.
func (c *Controller) validateOperandCount(op sense.Op, class Class, n int) error {
	if class == ClassIntraSub {
		return c.be.ValidateOperands(op, n)
	}
	// Inter-subarray/bank ops run through digital logic: AND/XOR stay
	// 2-operand, INV/READ 1-operand, OR chains up to the request cap.
	switch op {
	case sense.OpRead, sense.OpINV:
		if n != 1 {
			return fmt.Errorf("pim: %v requires exactly 1 operand, got %d", op, n)
		}
	case sense.OpAND, sense.OpXOR:
		if n != 2 {
			return fmt.Errorf("pim: %v requires exactly 2 operands, got %d", op, n)
		}
	case sense.OpOR:
		if n < 2 || n > InterORLimit {
			return fmt.Errorf("pim: %v supports 2..%d operands, got %d", op, InterORLimit, n)
		}
	default:
		return fmt.Errorf("pim: unknown op %d", int(op))
	}
	return nil
}

// Execute runs op over the operand rows on their first `bits` bits. If dst
// is non-nil the result is written to that row (in place when possible);
// otherwise the result is burst onto the DDR bus for the host. The result
// words are returned either way so callers can verify functionally.
func (c *Controller) Execute(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr) (*Result, error) {
	return c.execute(op, srcs, bits, dst, false)
}

// ExecuteDigital forces the serial digital datapath (global row buffer /
// I/O buffer) even when the operands share a subarray. The digital path
// reads every operand with single-row sensing — the widest margin the chip
// has — so the resilience layer uses it when multi-row analog sensing keeps
// failing: slower, never deep-margin-limited.
func (c *Controller) ExecuteDigital(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr) (*Result, error) {
	return c.execute(op, srcs, bits, dst, true)
}

// execute lowers one operation to a DDR command sequence, prices it, and
// applies its data effects. Panics if the sequence it built violates the
// DDR protocol — a controller bug, never a caller error.
func (c *Controller) execute(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr, digital bool) (*Result, error) {
	if c.cacheEligible() {
		res, ok, err := c.executeCached(op, srcs, bits, dst, digital)
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
	}
	res, err := c.executeFresh(op, srcs, bits, dst, digital)
	if err != nil {
		return nil, err
	}
	if c.cacheEligible() {
		act, senseSteps, wb, bus := countersFor(res.Commands)
		c.cache.Store(c.keyBuf.Bytes(), &progEntry{
			class:       res.Class,
			seconds:     res.Seconds,
			energy:      res.Energy,
			commands:    res.Commands,
			activations: act,
			senseSteps:  senseSteps,
			writebacks:  wb,
			busBits:     bus,
		})
	}
	return res, nil
}

// progEntry is one cached lowering: everything execute() derives from the
// operation shape alone. The command slice is shared by every hit and by
// the miss that built it — a copy-on-write view that no consumer mutates
// (Result.Instr and Program.Request only read it). Words are never
// cached: they depend on memory contents and are recomputed per hit.
type progEntry struct {
	class    Class
	seconds  float64
	energy   energy.Meter
	commands []ddr.Cmd

	// Hardware-counter deltas of the command sequence, precomputed so a
	// hit tallies exactly what the fresh path would.
	activations int64
	senseSteps  int64
	writebacks  int64
	busBits     int64
}

// cacheEligible reports whether the program cache may serve this
// controller's executions. Only the ideal-hardware path qualifies: a
// fault injector makes sensing stateful (wear, per-op substreams) and the
// ECC codec adds per-row check-bit effects, so both force the fresh path.
func (c *Controller) cacheEligible() bool {
	return c.cacheOn && c.inj == nil && c.codec == nil
}

// executeCached serves one execution from the program cache. ok=false
// means no entry (the caller runs the fresh path, and the key left in
// keyBuf is where the fresh result is stored). On a hit the non-data
// outputs come from the entry and the data effects are reproduced
// exactly as the fresh path would produce them: result words computed
// from current memory through the same SA model (including the analog
// cross-check, so the sampling stream stays aligned with an uncached
// run), the accumulation buffer left holding the result on the digital
// paths, and dst programmed.
func (c *Controller) executeCached(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr, digital bool) (*Result, bool, error) {
	geo := c.mem.Geometry()
	// Build the key. Addresses are bounds-checked before trusting a hit:
	// Encode is only injective inside the geometry, so an out-of-bounds
	// operand must fall through to the fresh path's validation errors
	// rather than alias a cached valid address.
	k := &c.keyBuf
	k.Reset()
	k.Byte(byte(op))
	var flags byte
	if digital {
		flags |= 1
	}
	if dst != nil {
		flags |= 2
	}
	k.Byte(flags)
	k.Int(bits)
	if dst != nil {
		if !geo.Valid(*dst) {
			return nil, false, nil
		}
		k.Uint64(geo.Encode(*dst))
	}
	k.Int(len(srcs))
	for _, s := range srcs {
		if !geo.Valid(s) {
			return nil, false, nil
		}
		k.Uint64(geo.Encode(s))
	}
	e, ok := c.cache.Lookup(k.Bytes())
	if !ok {
		return nil, false, nil
	}
	ent := e.(*progEntry)

	w := bitvec.WordsFor(bits)
	if cap(c.rowsScratch) < len(srcs) {
		c.rowsScratch = make([][]uint64, len(srcs))
	}
	rows := c.rowsScratch[:len(srcs)]
	for i, s := range srcs {
		rows[i] = c.mem.PeekRow(s)[:w]
	}
	res := &Result{Op: op, Class: ent.class, Rows: len(srcs), Bits: bits,
		Seconds: ent.seconds, Energy: ent.energy, Commands: ent.commands}
	if ent.class == ClassIntraSub {
		out := make([]uint64, w)
		if err := c.be.ComputeInto(out, op, rows); err != nil {
			return nil, false, err
		}
		res.Words = out
	} else {
		out := make([]uint64, w)
		combineWords(op, rows, out)
		var buf []uint64
		if ent.class == ClassInterBank {
			buf = c.mem.IOBuffer(srcs[0].Channel, srcs[0].Rank)
		} else {
			buf = c.mem.GlobalBuffer(srcs[0].Channel, srcs[0].Rank, srcs[0].Bank)
		}
		copy(buf[:w], out)
		res.Words = out
	}
	c.tallyDeltas(ent.class, ent.activations, ent.senseSteps, ent.writebacks, ent.busBits)
	if dst != nil {
		if err := c.store(*dst, res.Words); err != nil {
			return nil, false, err
		}
	}
	return res, true, nil
}

// combineWords folds operand rows through the digital add-on logic: the
// word math of both the cached and the fresh global-buffer paths. out
// must not share memory with any row.
func combineWords(op sense.Op, rows [][]uint64, out []uint64) {
	if op == sense.OpOR {
		bitvec.OrWordsInto(out, rows)
		return
	}
	copy(out, rows[0][:len(out)])
	switch op {
	case sense.OpINV:
		for j := range out {
			out[j] = ^out[j]
		}
	case sense.OpAND:
		for _, r := range rows[1:] {
			for j := range out {
				out[j] &= r[j]
			}
		}
	case sense.OpXOR:
		for _, r := range rows[1:] {
			for j := range out {
				out[j] ^= r[j]
			}
		}
	default:
		// OpRead: the copy above is the whole operation.
	}
}

// executeFresh is the uncached lowering path. Panics if the command
// sequence it built violates the DDR protocol — a controller bug, never
// a caller error.
func (c *Controller) executeFresh(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr, digital bool) (*Result, error) {
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return nil, fmt.Errorf("pim: bits=%d outside 1..%d (row length)", bits, geo.RowBits())
	}
	class, err := c.Classify(srcs)
	if err != nil {
		return nil, err
	}
	if digital && class == ClassIntraSub {
		class = ClassInterSub
	}
	if err := c.validateOperandCount(op, class, len(srcs)); err != nil {
		return nil, err
	}
	if dst != nil {
		if !geo.Valid(*dst) {
			return nil, fmt.Errorf("pim: destination %v outside geometry", *dst)
		}
		if !memarch.SameRank(append([]memarch.RowAddr{*dst}, srcs...)...) {
			return nil, ErrCrossRank
		}
	}

	// Configure MR4: the DIMM-side SA reference / datapath selector.
	mr4, err := ddr.EncodeMR4(op, len(srcs))
	if err != nil {
		return nil, err
	}
	if err := c.mrs.Write(ddr.PIMRegister, uint16(mr4)); err != nil {
		return nil, err
	}

	res := &Result{Op: op, Class: class, Rows: len(srcs), Bits: bits}
	res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdMRS})

	switch class {
	case ClassIntraSub:
		err = c.execIntra(op, srcs, bits, dst, res)
	case ClassInterSub:
		err = c.execInter(op, srcs, bits, dst, res, false)
	case ClassInterBank:
		err = c.execInter(op, srcs, bits, dst, res, true)
	}
	if err != nil {
		return nil, err
	}

	// Close the destination's row (or the computing subarray's when the
	// result streamed to the host) so the precharge lands on the bank it
	// occupies in the channel schedule.
	preAddr := srcs[0]
	if dst != nil {
		preAddr = *dst
	}
	res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdPre, Addr: preAddr})
	if err := ddr.ValidateSequence(res.Commands); err != nil {
		// A protocol violation is a controller bug, never a caller error.
		panic(fmt.Sprintf("pim: invalid command sequence for %v/%v: %v", op, class, err))
	}
	res.Seconds = ddr.Duration(res.Commands, c.mem.Tech().Timing, c.bus)
	c.tally(class, res.Commands)

	if dst != nil {
		if err := c.store(*dst, res.Words); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// store programs a row, routing the write through the wear model: worn rows
// keep their stuck-at bits regardless of what the write drivers deliver.
func (c *Controller) store(addr memarch.RowAddr, words []uint64) error {
	if err := c.mem.WriteRow(addr, words); err != nil {
		return err
	}
	if c.inj != nil {
		key := c.mem.Geometry().Encode(addr)
		share := 1
		if c.wearShare != nil {
			if s := c.wearShare(addr); s > 1 {
				share = s
			}
		}
		c.inj.RecordWriteShared(key, share)
		if c.inj.Worn(key) {
			c.inj.CorruptStored(key, c.mem.PeekRow(addr))
		}
	}
	return nil
}

// senseGroups returns how many serial column-group sensing steps cover
// `bits` bits.
func senseGroups(geo memarch.Geometry, bits int) int {
	return backend.SenseGroups(geo, bits)
}

// execIntra delegates the in-array computation to the technology backend:
// it peeks the operand rows, hands the request to the backend's lowering
// (which appends commands, charges energy and computes the result into a
// fresh buffer), and routes the result through the generic write-back.
func (c *Controller) execIntra(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr, res *Result) error {
	geo := c.mem.Geometry()
	w := bitvec.WordsFor(bits)
	if cap(c.rowsScratch) < len(srcs) {
		c.rowsScratch = make([][]uint64, len(srcs))
	}
	rows := c.rowsScratch[:len(srcs)]
	for i, s := range srcs {
		rows[i] = c.mem.PeekRow(s)[:w]
	}
	req := backend.IntraRequest{
		Op:     op,
		Srcs:   srcs,
		Bits:   bits,
		Rows:   rows,
		Out:    make([]uint64, w),
		Geo:    geo,
		Inj:    c.inj,
		Energy: &res.Energy,
	}
	cmds, err := c.be.LowerIntra(&req, res.Commands)
	if err != nil {
		return err
	}
	res.Commands = cmds
	res.Words = req.Out
	return c.writeback(srcs[0], bits, dst, res, ClassIntraSub)
}

// execInter performs the serial global-buffer operation (inter-subarray
// when interBank is false, inter-bank when true).
func (c *Controller) execInter(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr, res *Result, interBank bool) error {
	geo := c.mem.Geometry()
	e := c.mem.Tech().Energy
	groups := senseGroups(geo, bits)
	w := bitvec.WordsFor(bits)

	moveKind := ddr.CmdGDLMove
	moveEnergy := e.GDLPerBit
	moveComp := energy.GDL
	if interBank {
		moveKind = ddr.CmdIOMove
		moveEnergy = e.IOBusPerBit
		moveComp = energy.IOBus
	}

	// The accumulation buffer: global row buffer of the first operand's
	// bank, or the rank's I/O buffer.
	var buf []uint64
	if interBank {
		buf = c.mem.IOBuffer(srcs[0].Channel, srcs[0].Rank)
	} else {
		buf = c.mem.GlobalBuffer(srcs[0].Channel, srcs[0].Rank, srcs[0].Bank)
	}

	if cap(c.rowsScratch) < len(srcs) {
		c.rowsScratch = make([][]uint64, len(srcs))
	}
	rows := c.rowsScratch[:len(srcs)]
	fbits := float64(bits)
	for i, s := range srcs {
		// Read the operand row: activate + normal sensing per group.
		res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdAct, Addr: s})
		for g := 0; g < groups; g++ {
			res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdSense, Addr: s})
		}
		res.Commands = append(res.Commands, ddr.Cmd{Kind: moveKind, Addr: s, Bits: bits})
		// Close the operand's row before the next serial read (the data is
		// safe in the accumulation buffer).
		res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdPre, Addr: s})
		res.Energy.Add(energy.CellArray, fbits*e.ActPerBit)
		res.Energy.Add(energy.LWLDriver, e.LWLPerAct)
		res.Energy.Add(energy.SenseAmp, fbits*e.SensePerBit)
		res.Energy.Add(moveComp, fbits*moveEnergy)
		res.Energy.Add(energy.Buffer, fbits*e.BufferPerBit)

		row := c.mem.PeekRow(s)[:w]
		if c.inj != nil {
			// The digital path senses each operand with an ordinary
			// single-row read; flips are possible but read-margin rare.
			cp := make([]uint64, w)
			copy(cp, row)
			c.inj.FlipSensed(sense.OpRead, 1, bits, cp)
			row = cp
		}
		rows[i] = row
		if i > 0 {
			// Add-on digital logic combines the streamed row into the buffer.
			res.Energy.Add(energy.Logic, fbits*e.LogicPerBit)
		}
	}
	// validateOperandCount admitted only operand counts the add-on logic
	// supports, so the fold cannot meet an op it does not implement.
	combineWords(op, rows, buf[:w])
	if len(srcs) == 1 && op == sense.OpINV {
		res.Energy.Add(energy.Logic, fbits*e.LogicPerBit)
	}

	res.Words = make([]uint64, w)
	copy(res.Words, buf[:w])
	return c.writeback(srcs[0], bits, dst, res, res.Class)
}

// writeback routes the result to dst (or to the host when dst is nil) and
// charges the corresponding commands and energy. locus is where the result
// currently sits: the computing subarray's SAs (intra) or a buffer.
func (c *Controller) writeback(locus memarch.RowAddr, bits int, dst *memarch.RowAddr, res *Result, class Class) error {
	e := c.mem.Tech().Energy
	fbits := float64(bits)
	if dst == nil {
		// Burst to the host over the DDR bus.
		res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdRd, Addr: locus, Bits: bits})
		res.Energy.Add(energy.IOBus, fbits*e.IOBusPerBit)
		return nil
	}
	sameSub := memarch.SameSubarray(locus, *dst)
	sameBank := memarch.SameBank(locus, *dst)
	switch {
	case class == ClassIntraSub && sameSub:
		// Pure in-place update: SA output feeds the WDs directly.
	case sameBank:
		// Move over the bank's GDLs to the destination subarray's WDs.
		res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdGDLMove, Addr: *dst, Bits: bits})
		res.Energy.Add(energy.GDL, fbits*e.GDLPerBit)
	default:
		// Cross-bank: GDL out of the source bank, I/O datapath across,
		// GDL into the destination bank.
		res.Commands = append(res.Commands,
			ddr.Cmd{Kind: ddr.CmdGDLMove, Addr: locus, Bits: bits},
			ddr.Cmd{Kind: ddr.CmdIOMove, Addr: *dst, Bits: bits},
			ddr.Cmd{Kind: ddr.CmdGDLMove, Addr: *dst, Bits: bits})
		res.Energy.Add(energy.GDL, 2*fbits*e.GDLPerBit)
		res.Energy.Add(energy.IOBus, fbits*e.IOBusPerBit)
	}
	res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdWBack, Addr: *dst})
	res.Energy.Add(energy.WriteDriver, fbits*e.WritePerBit)
	return nil
}

// ReadRow performs a conventional read of `bits` bits from a row to the
// host, returning latency/energy like Execute (used by baselines and the
// public API's Read).
func (c *Controller) ReadRow(addr memarch.RowAddr, bits int) (*Result, error) {
	return c.Execute(sense.OpRead, []memarch.RowAddr{addr}, bits, nil)
}

// WriteRowFromHost performs a conventional write of `bits` bits from the
// host into a row, pricing the bus transfer and cell programming. Panics if
// the fixed ACT/WR/PRE sequence violates the DDR protocol — a controller
// bug, never a caller error.
func (c *Controller) WriteRowFromHost(addr memarch.RowAddr, words []uint64, bits int) (*Result, error) {
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return nil, fmt.Errorf("pim: bits=%d outside 1..%d", bits, geo.RowBits())
	}
	if !geo.Valid(addr) {
		return nil, fmt.Errorf("pim: address %v outside geometry", addr)
	}
	if want := bitvec.WordsFor(bits); len(words) > want {
		return nil, fmt.Errorf("pim: %d words exceed %d-bit vector", len(words), bits)
	}
	res := &Result{Op: sense.OpRead, Class: ClassIntraSub, Rows: 1, Bits: bits}
	res.Commands = []ddr.Cmd{
		{Kind: ddr.CmdAct, Addr: addr},
		{Kind: ddr.CmdWr, Addr: addr, Bits: bits},
		{Kind: ddr.CmdPre, Addr: addr},
	}
	if err := ddr.ValidateSequence(res.Commands); err != nil {
		panic(fmt.Sprintf("pim: invalid host-write sequence: %v", err))
	}
	res.Seconds = ddr.Duration(res.Commands, c.mem.Tech().Timing, c.bus)
	c.tally(ClassIntraSub, res.Commands)
	e := c.mem.Tech().Energy
	res.Energy.Add(energy.IOBus, float64(bits)*e.IOBusPerBit)
	res.Energy.Add(energy.WriteDriver, float64(bits)*e.WritePerBit)
	if err := c.store(addr, words); err != nil {
		return nil, err
	}
	if c.codec != nil {
		c.eccProgramHost(addr, words, bits, res)
	}
	res.Words = words
	return res, nil
}
