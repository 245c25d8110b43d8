// Package pimrt is Pinatubo's system-software stack (the paper's Fig. 4):
// the PIM-aware allocator behind pim_malloc (bit-vectors must land in
// distinct rows, groups of vectors that will be operated on together should
// share a subarray), the mapper that turns logical bit-vector IDs into row
// addresses, and the scheduler that lowers a logical multi-operand request
// into the per-subarray intra ops plus inter-subarray/bank combines the
// hardware actually runs.
package pimrt

import (
	"errors"
	"fmt"
	"sort"

	"pinatubo/internal/cmdstream"
	"pinatubo/internal/memarch"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

// ErrOutOfMemory is returned when no rows are left.
var ErrOutOfMemory = errors.New("pimrt: out of memory rows")

// Allocator hands out rank-logical rows with subarray affinity. It is the
// model of the modified C run-time allocator plus the OS mapping policy:
// allocations walk subarrays sequentially so that consecutively allocated
// bit-vectors (the common "operate on these together" case) share one.
type Allocator struct {
	geo     memarch.Geometry
	free    map[uint64]bool // explicit frees, reused before fresh rows
	retired map[uint64]bool // worn-out rows, permanently out of circulation
	next    uint64          // next never-allocated row index
	max     uint64
	// tail is how many rows at the end of every subarray are reserved and
	// never handed out: the scheduler's scratch row plus whatever the
	// technology backend claims as compute rows (Caps().ComputeRows).
	tail int
}

// NewAllocator builds an allocator over the whole memory. When
// reserveScratch is true, the last row of every subarray is never handed
// out — the driver library keeps it as the scheduler's partial-result row
// (ScratchRow returns it).
func NewAllocator(geo memarch.Geometry, reserveScratch bool) (*Allocator, error) {
	tail := 0
	if reserveScratch {
		tail = 1
	}
	return NewAllocatorTail(geo, tail)
}

// NewAllocatorTail builds an allocator that keeps the last tail rows of
// every subarray out of circulation. The System sizes the tail as one
// scratch row plus the backend's reserved compute rows, so a backend that
// claims designated rows (the DRAM TRA group) can never collide with data.
func NewAllocatorTail(geo memarch.Geometry, tail int) (*Allocator, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if tail < 0 || tail >= geo.RowsPerSubarray {
		return nil, fmt.Errorf("pimrt: reserved tail of %d rows outside 0..%d",
			tail, geo.RowsPerSubarray-1)
	}
	return &Allocator{
		geo:     geo,
		free:    make(map[uint64]bool),
		retired: make(map[uint64]bool),
		max:     uint64(geo.TotalRows()),
		tail:    tail,
	}, nil
}

// UsableRowsPerSubarray reports how many rows of each subarray the
// allocator may hand out.
func (a *Allocator) UsableRowsPerSubarray() int { return a.geo.RowsPerSubarray - a.tail }

// ScratchRow returns the reserved scratch row of the subarray containing a.
func ScratchRow(geo memarch.Geometry, a memarch.RowAddr) memarch.RowAddr {
	a.Row = geo.RowsPerSubarray - 1
	return a
}

// skipReserved advances the frontier past the reserved tail rows.
func (a *Allocator) skipReserved() {
	if a.tail == 0 {
		return
	}
	per := uint64(a.geo.RowsPerSubarray)
	for a.next < a.max && a.next%per >= per-uint64(a.tail) {
		a.next++
	}
}

// AllocRows returns n rows. Rows come from the free list first, then from
// the sequential frontier (which fills subarray after subarray, giving
// adjacent allocations intra-subarray placement).
func (a *Allocator) AllocRows(n int) ([]memarch.RowAddr, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pimrt: alloc of %d rows", n)
	}
	out := make([]memarch.RowAddr, 0, n)
	// Reuse freed rows in ascending order for determinism.
	if len(a.free) > 0 {
		keys := make([]uint64, 0, len(a.free))
		for k := range a.free {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if len(out) == n {
				break
			}
			delete(a.free, k)
			out = append(out, a.geo.Decode(k))
		}
	}
	for len(out) < n {
		a.skipReserved()
		if a.next >= a.max {
			return nil, fmt.Errorf("pimrt: allocating %d rows (%d still needed): %w",
				n, n-len(out), ErrOutOfMemory)
		}
		out = append(out, a.geo.Decode(a.next))
		a.next++
	}
	return out, nil
}

// AllocGroupRows returns n rows guaranteed to share one subarray (needed
// when the caller wants one-step multi-row ops over the whole group). It
// fails if n exceeds the subarray's row count.
func (a *Allocator) AllocGroupRows(n int) ([]memarch.RowAddr, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pimrt: alloc of %d rows", n)
	}
	avail := a.UsableRowsPerSubarray()
	if n > avail {
		return nil, fmt.Errorf("pimrt: group of %d rows exceeds subarray (%d usable rows)",
			n, avail)
	}
	// Advance the frontier to a subarray boundary if the group would
	// straddle one (counting the reserved tail rows as unusable).
	per := uint64(a.geo.RowsPerSubarray)
	used := a.next % per
	if used+uint64(n) > uint64(avail) {
		a.next += per - used
	}
	if a.next+uint64(n) > a.max {
		return nil, fmt.Errorf("pimrt: allocating a %d-row group: %w", n, ErrOutOfMemory)
	}
	out := make([]memarch.RowAddr, n)
	for i := range out {
		out[i] = a.geo.Decode(a.next)
		a.next++
	}
	return out, nil
}

// Free returns rows to the allocator. Retired rows stay out of circulation.
func (a *Allocator) Free(rows []memarch.RowAddr) {
	for _, r := range rows {
		key := a.geo.Encode(r)
		if a.retired[key] {
			continue
		}
		a.free[key] = true
	}
}

// Retire permanently removes a row from circulation (wear-out: its cells no
// longer store what the write drivers deliver). A retired row is never
// handed out again, even if Free is later called on it.
func (a *Allocator) Retire(r memarch.RowAddr) {
	key := a.geo.Encode(r)
	a.retired[key] = true
	delete(a.free, key)
}

// Reset restores the allocator to its NewAllocator state: the frontier
// rewinds and free/retired sets empty, so a pooled shard sandbox hands out
// exactly the row sequence a fresh allocator would.
func (a *Allocator) Reset() {
	for k := range a.free {
		delete(a.free, k)
	}
	for k := range a.retired {
		delete(a.retired, k)
	}
	a.next = 0
}

// AllocatedRows reports how many rows are currently live (retired rows
// still count — their capacity is lost, not reclaimed).
func (a *Allocator) AllocatedRows() int { return int(a.next) - len(a.free) }

// RetiredRows reports how many rows have been retired.
func (a *Allocator) RetiredRows() int { return len(a.retired) }

// --- scheduling ---

// subarrayKey identifies one subarray.
type subarrayKey struct{ ch, rk, ba, sa int }

func keyOf(a memarch.RowAddr) subarrayKey {
	return subarrayKey{a.Channel, a.Rank, a.Bank, a.Subarray}
}

// GroupBySubarray partitions operand rows by their subarray, preserving
// first-appearance order of the groups. Grouping scans linearly instead
// of hashing: operand sets are bounded by the open-row cap and group
// counts are tiny, so the scan beats a map and allocates no index.
func GroupBySubarray(rows []memarch.RowAddr) [][]memarch.RowAddr {
	return appendGroups(nil, rows)
}

// appendGroups is GroupBySubarray onto a caller-owned groups buffer
// (emptied group slices are reused; see Scheduler.groupBySubarray).
func appendGroups(groups [][]memarch.RowAddr, rows []memarch.RowAddr) [][]memarch.RowAddr {
	for _, r := range rows {
		k := keyOf(r)
		found := -1
		for i := range groups {
			if keyOf(groups[i][0]) == k {
				found = i
				break
			}
		}
		if found < 0 {
			if len(groups) < cap(groups) {
				groups = groups[:len(groups)+1]
				groups[len(groups)-1] = groups[len(groups)-1][:0]
			} else {
				groups = append(groups, nil)
			}
			found = len(groups) - 1
		}
		groups[found] = append(groups[found], r)
	}
	return groups
}

// PlacementOf returns the workload placement of an operand set: intra when
// one subarray holds everything, inter-sub within a bank, inter-bank within
// a rank. Cross-rank sets return an error — the driver must split them.
func PlacementOf(rows []memarch.RowAddr) (workload.Placement, error) {
	switch {
	case memarch.SameSubarray(rows...):
		return workload.PlaceIntra, nil
	case memarch.SameBank(rows...):
		return workload.PlaceInterSub, nil
	case memarch.SameRank(rows...):
		return workload.PlaceInterBank, nil
	default:
		return 0, fmt.Errorf("pimrt: placing %d operand rows: %w", len(rows), pim.ErrCrossRank)
	}
}

// SpecForOR builds the workload OpSpec for a logical OR over operand rows,
// with the scheduler's subarray grouping attached. bits is the vector
// length.
func SpecForOR(rows []memarch.RowAddr, bits int) (workload.OpSpec, error) {
	if len(rows) < 2 {
		return workload.OpSpec{}, fmt.Errorf("pimrt: OR over %d rows", len(rows))
	}
	placement, err := PlacementOf(rows)
	if err != nil {
		return workload.OpSpec{}, err
	}
	spec := workload.OpSpec{
		Op:        sense.OpOR,
		Operands:  len(rows),
		Bits:      bits,
		Placement: placement,
	}
	if groups := GroupBySubarray(rows); len(groups) > 1 {
		spec.Groups = make([]int, len(groups))
		for i, g := range groups {
			spec.Groups[i] = len(g)
		}
	}
	return spec, nil
}

// Schedule lowers a logical OR over arbitrarily many operand rows into the
// hardware request sequence: per-subarray multi-row ORs at the controller's
// depth (with chaining through scratch rows), then an inter combine, with
// the final result written to dst. It executes the ops on the controller
// and returns the accumulated cost plus the number of hardware requests.
//
// scratch must provide one free row in every subarray touched; the driver
// library reserves these at init (the paper's run-time "schedule opt").
type Scheduler struct {
	Ctl *pim.Controller
	// Scratch returns a scratch row in the given subarray for partial
	// results.
	Scratch func(sub memarch.RowAddr) memarch.RowAddr
	// Res enables the verify-and-retry resilience ladder (resilience.go);
	// nil schedules plainly, trusting the hardware.
	Res *Resilience
	// Remap, when set, supplies a replacement row for a destination whose
	// cells are damaged (the old row should be retired by the provider).
	Remap func(old memarch.RowAddr) (memarch.RowAddr, error)
	// Release, when set, takes back rows the scheduler borrowed through
	// Remap for internal partials it no longer needs.
	Release func(rows []memarch.RowAddr)
	// Replicas, when set, supplies the replica rows holding extra copies of
	// a logical row (nil/empty for unreplicated rows). When every operand
	// of an intra-subarray request is replicated, the request executes as a
	// majority-voted activation over all copies — the proactive rung of the
	// resilience ladder (resilience.go).
	Replicas func(a memarch.RowAddr) []memarch.RowAddr

	stats FaultStats

	// groups, srcs and partials are scheduling scratch, reused across
	// operations so the steady-state OR path allocates nothing for
	// operand grouping and request assembly. A Scheduler is owned by one
	// System and never called reentrantly, so plain fields suffice.
	groups   [][]memarch.RowAddr
	srcs     []memarch.RowAddr
	partials []memarch.RowAddr
}

// groupBySubarray is GroupBySubarray through the scheduler's reusable
// grouping scratch.
func (s *Scheduler) groupBySubarray(rows []memarch.RowAddr) [][]memarch.RowAddr {
	s.groups = appendGroups(s.groups[:0], rows)
	return s.groups
}

// ScheduleResult summarises one scheduled logical operation.
type ScheduleResult struct {
	Requests int
	Cost     workload.Cost
	Words    []uint64

	// Program is the operation's lowered cmdstream program: everything it
	// put on the channel in execution order, including resilience
	// expansions (retries, depth splits, ECC reprograms and verification
	// passes). Requests and Cost are derived from it by finalize — the
	// program is the single source of truth.
	Program cmdstream.Program

	// Resilience outcome — all zero when the ladder is off or never needed.
	Retries       int    // hardware re-executions
	Degraded      string // worst degradation rung taken ("" = native path)
	BitsCorrected int64  // wrong bits intercepted by verification
	Votes         int    // majority-voted requests executed
	BitsOutvoted  int64  // replica-disagreeing bits the vote overrode
	// FinalDst is where the result actually lives; it differs from the
	// requested destination only when that row was retired mid-operation.
	FinalDst memarch.RowAddr
}

// finalize derives the result's accounting — request count, accumulated
// Cost, vote tallies — from the lowered program. This is the only place
// in the runtime that computes them. The cost fold replays the program's
// annotations in emission order, so it is bit-identical to accumulating
// during execution.
func (res *ScheduleResult) finalize() {
	res.Requests = res.Program.Requests()
	res.Cost = res.Program.Cost()
	res.Votes, res.BitsOutvoted = res.Program.Votes()
}

// OR executes the logical OR of the operand rows into dst.
func (s *Scheduler) OR(rows []memarch.RowAddr, bits int, dst memarch.RowAddr) (*ScheduleResult, error) {
	if len(rows) == 0 {
		return nil, errors.New("pimrt: OR of no rows")
	}
	res := &ScheduleResult{FinalDst: dst}
	tgt := dst
	if len(rows) == 1 {
		// Degenerate copy: read + write through the controller.
		if _, err := s.request(sense.OpRead, rows, bits, &tgt, nil, res); err != nil {
			return nil, err
		}
		res.FinalDst = tgt
		res.finalize()
		return res, nil
	}

	depth := s.Ctl.MaxORRows()
	groups := s.groupBySubarray(rows)
	partials := s.partials[:0]
	var borrowed []memarch.RowAddr
	for _, g := range groups {
		if len(g) == 1 {
			partials = append(partials, g[0])
			continue
		}
		// Collapse the group inside its subarray, chaining at the depth.
		target := s.Scratch(g[0])
		if len(groups) == 1 {
			target = dst
		}
		orig := target
		if err := s.chainedOR(g, bits, &target, depth, res); err != nil {
			return nil, err
		}
		if len(groups) == 1 {
			res.FinalDst = target
			res.finalize()
			s.partials = partials[:0]
			return res, nil
		}
		if target != orig {
			// The scratch row wore out mid-chain and the partial now lives
			// in a row on loan from the allocator; return it once combined.
			borrowed = append(borrowed, target)
		}
		partials = append(partials, target)
	}
	// Combine partials across subarrays/banks. The partials necessarily
	// live in distinct subarrays, so this is one inter request (chunked at
	// the request cap when enormous).
	if err := s.chainedOR(partials, bits, &tgt, pim.InterORLimit, res); err != nil {
		return nil, err
	}
	s.partials = partials[:0]
	res.FinalDst = tgt
	if s.Release != nil && len(borrowed) > 0 {
		s.Release(borrowed)
	}
	res.finalize()
	return res, nil
}

// chainedOR folds rows into *target with requests of at most depth
// operands. Every link goes through request, so with resilience enabled
// each one is verified before the next consumes the accumulator; the
// verified words double as the restore checkpoint for the following link.
func (s *Scheduler) chainedOR(rows []memarch.RowAddr, bits int, target *memarch.RowAddr, depth int, res *ScheduleResult) error {
	take := len(rows)
	if take > depth {
		take = depth
	}
	srcs := append(s.srcs[:0], rows[:take]...)
	words, err := s.request(sense.OpOR, srcs, bits, target, nil, res)
	if err != nil {
		return err
	}
	done := take
	for done < len(rows) {
		take = len(rows) - done
		if take > depth-1 {
			take = depth - 1
		}
		srcs = srcs[:0]
		srcs = append(srcs, *target)
		srcs = append(srcs, rows[done:done+take]...)
		words, err = s.request(sense.OpOR, srcs, bits, target, words, res)
		if err != nil {
			return err
		}
		done += take
	}
	s.srcs = srcs[:0]
	return nil
}

// --- logical-ID mapping ---

// Mapper models the default pim_malloc placement policy for a homogeneous
// collection of bit-vectors (adjacency rows, index bitmaps): logical vector
// i occupies the i-th usable row of the sequential allocation order, with
// the per-subarray scratch row skipped. Applications use it to derive the
// operand grouping of a logical op without instantiating a memory.
type Mapper struct {
	geo    memarch.Geometry
	usable int // rows per subarray available to data
}

// NewMapper builds a mapper for the geometry (scratch rows reserved).
func NewMapper(geo memarch.Geometry) (Mapper, error) {
	if err := geo.Validate(); err != nil {
		return Mapper{}, err
	}
	return Mapper{geo: geo, usable: geo.RowsPerSubarray - 1}, nil
}

// RowOf returns the row address of logical vector id. Panics on a negative
// id or one past the memory's capacity — ids come from the mapper's own
// allocator, so either is a runtime bug.
func (m Mapper) RowOf(id int) memarch.RowAddr {
	if id < 0 {
		panic(fmt.Sprintf("pimrt: negative vector id %d", id))
	}
	sub := id / m.usable
	row := id % m.usable
	flat := uint64(sub)*uint64(m.geo.RowsPerSubarray) + uint64(row)
	if flat >= uint64(m.geo.TotalRows()) {
		panic(fmt.Sprintf("pimrt: vector id %d exceeds memory capacity", id))
	}
	return m.geo.Decode(flat)
}

// SpecForIDs builds the scheduler-grouped OR spec over logical vector IDs.
func (m Mapper) SpecForIDs(ids []int, bits int) (workload.OpSpec, error) {
	rows := make([]memarch.RowAddr, len(ids))
	for i, id := range ids {
		rows[i] = m.RowOf(id)
	}
	return SpecForOR(rows, bits)
}
