// Package fastbit implements the evaluation's database workload: a
// FastBit-style equality-encoded bitmap index over synthetic STAR-detector
// event records (the real STAR data is not public; DESIGN.md documents the
// substitution). Multi-dimensional range queries decompose into exactly the
// bulk bitwise algebra Pinatubo accelerates: per dimension an OR over the
// bin bitmaps the range covers (a natural multi-row OR), then an AND across
// dimensions; boundary-bin candidates are re-checked against the raw values
// on the CPU, as FastBit does.
package fastbit

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"pinatubo/internal/bitvec"
	"pinatubo/internal/pimrt"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

// Column is one attribute's equality-encoded bitmap index.
type Column struct {
	Name    string
	rows    int
	edges   []float64 // nbins+1 ascending bin edges
	bitmaps []*bitvec.Vector
	values  []float64 // raw values, for candidate checks and validation
}

// NewColumn builds the index for a value array with equal-population bins
// (FastBit's default binning for skewed physics data).
func NewColumn(name string, values []float64, nbins int) (*Column, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("fastbit: column %q has no rows", name)
	}
	if nbins < 2 || nbins > len(values) {
		return nil, fmt.Errorf("fastbit: column %q: %d bins for %d rows", name, nbins, len(values))
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	edges := make([]float64, nbins+1)
	for i := 0; i <= nbins; i++ {
		pos := i * (len(sorted) - 1) / nbins
		edges[i] = sorted[pos]
	}
	edges[nbins] = math.Nextafter(sorted[len(sorted)-1], math.Inf(1))
	// Deduplicate degenerate edges (heavy ties) by nudging.
	for i := 1; i <= nbins; i++ {
		if edges[i] <= edges[i-1] {
			edges[i] = math.Nextafter(edges[i-1], math.Inf(1))
		}
	}
	c := &Column{Name: name, rows: len(values), edges: edges, values: values}
	c.bitmaps = make([]*bitvec.Vector, nbins)
	for i := range c.bitmaps {
		c.bitmaps[i] = bitvec.New(len(values))
	}
	for row, v := range values {
		c.bitmaps[c.BinOf(v)].Set(row)
	}
	return c, nil
}

// NBins returns the bin count.
func (c *Column) NBins() int { return len(c.bitmaps) }

// Rows returns the row count.
func (c *Column) Rows() int { return c.rows }

// Bitmap returns bin b's bitmap (shared; callers must not mutate).
func (c *Column) Bitmap(b int) *bitvec.Vector { return c.bitmaps[b] }

// Value returns the raw value of one row — the read FastBit performs when
// re-checking boundary-bin candidates.
func (c *Column) Value(row int) float64 { return c.values[row] }

// BinOf returns the bin index of value v (clamped to the edge bins).
func (c *Column) BinOf(v float64) int {
	// First edge whose value exceeds v, minus one. The comparison below is
	// an exact membership probe against stored (assigned, never computed)
	// bin edges — FastBit's closed-open bin boundary semantics.
	i := sort.SearchFloat64s(c.edges, v)
	//pinlint:ignore floateq exact probe against stored bin edges, not computed floats
	if i < len(c.edges) && c.edges[i] == v {
		i++
	}
	i--
	if i < 0 {
		return 0
	}
	if i >= c.NBins() {
		return c.NBins() - 1
	}
	return i
}

// Table is a collection of indexed columns over the same rows.
type Table struct {
	rows int
	cols map[string]*Column
	// order preserves column addition order for deterministic mapping.
	order []string
}

// NewTable builds an empty table expecting the given row count.
func NewTable(rows int) (*Table, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("fastbit: table with %d rows", rows)
	}
	return &Table{rows: rows, cols: make(map[string]*Column)}, nil
}

// AddColumn indexes a value array under the name.
func (t *Table) AddColumn(name string, values []float64, nbins int) error {
	if len(values) != t.rows {
		return fmt.Errorf("fastbit: column %q has %d rows, table has %d", name, len(values), t.rows)
	}
	if _, dup := t.cols[name]; dup {
		return fmt.Errorf("fastbit: duplicate column %q", name)
	}
	c, err := NewColumn(name, values, nbins)
	if err != nil {
		return err
	}
	t.cols[name] = c
	t.order = append(t.order, name)
	return nil
}

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// Column returns the named column.
func (t *Table) Column(name string) (*Column, bool) {
	c, ok := t.cols[name]
	return c, ok
}

// Columns returns the column names in addition order.
func (t *Table) Columns() []string { return append([]string(nil), t.order...) }

// bitmapID returns the logical PIM bit-vector ID of (column, bin): columns'
// bitmap sets are allocated back to back by pim_malloc.
// bitmapID flattens (column, bin) to a dense bitmap index. Panics on an
// unknown column name — the schema is fixed at table construction, so a
// miss is a harness bug.
func (t *Table) bitmapID(col string, bin int) int {
	base := 0
	for _, name := range t.order {
		if name == col {
			return base + bin
		}
		base += t.cols[name].NBins()
	}
	panic(fmt.Sprintf("fastbit: unknown column %q", col))
}

// RangeCond is one dimension's predicate lo <= value < hi.
type RangeCond struct {
	Col    string
	Lo, Hi float64
}

// Query is a conjunction of range predicates.
type Query struct {
	Conds []RangeCond
}

// CPUWork prices the database's non-bitwise work.
type CPUWork struct {
	SecPerCandidate float64 // re-check one boundary-bin row against its value
	SecPerMatch     float64 // fetch/aggregate one matching event record
	SecPerWord      float64 // result-bitmap popcount/extraction per word
	PowerW          float64
}

// DefaultCPUWork returns the evaluation's constants.
func DefaultCPUWork() CPUWork {
	return CPUWork{
		SecPerCandidate: 4e-9,
		SecPerMatch:     20e-9,
		SecPerWord:      1e-9,
		PowerW:          65,
	}
}

func (c CPUWork) charge(tr *workload.Trace, seconds float64) {
	if tr == nil {
		return
	}
	tr.Other.Seconds += seconds
	tr.Other.Joules += seconds * c.PowerW
}

// Evaluate answers the query exactly, emitting the bitmap-algebra ops to
// trace (when non-nil) and charging candidate checks and result handling to
// trace.Other. The mapper supplies operand placement for the per-dimension
// bin ORs.
func (t *Table) Evaluate(q Query, mapper pimrt.Mapper, cpu CPUWork, trace *workload.Trace) (*bitvec.Vector, error) {
	if len(q.Conds) == 0 {
		return nil, fmt.Errorf("fastbit: empty query")
	}
	emit := func(spec workload.OpSpec) {
		if trace != nil {
			trace.Append(spec)
		}
	}

	var result *bitvec.Vector
	for dimIdx, cond := range q.Conds {
		col, ok := t.cols[cond.Col]
		if !ok {
			return nil, fmt.Errorf("fastbit: unknown column %q", cond.Col)
		}
		if cond.Lo >= cond.Hi {
			return nil, fmt.Errorf("fastbit: empty range [%g,%g) on %q", cond.Lo, cond.Hi, cond.Col)
		}
		loBin, hiBin := col.BinOf(cond.Lo), col.BinOf(cond.Hi)

		// OR the touched bins — the multi-row operation.
		ids := make([]int, 0, hiBin-loBin+1)
		for b := loBin; b <= hiBin; b++ {
			ids = append(ids, t.bitmapID(cond.Col, b))
		}
		dim := bitvec.New(t.rows)
		if len(ids) == 1 {
			emit(workload.OpSpec{Op: sense.OpRead, Operands: 1, Bits: t.rows})
			dim.CopyFrom(col.bitmaps[loBin])
		} else {
			spec, err := mapper.SpecForIDs(ids, t.rows)
			if err != nil {
				return nil, err
			}
			emit(spec)
			ops := make([]*bitvec.Vector, len(ids))
			for i, b := 0, loBin; b <= hiBin; i, b = i+1, b+1 {
				ops[i] = col.bitmaps[b]
			}
			dim.OrAll(ops...)
		}

		// Candidate check: rows in the boundary bins may fall outside the
		// exact range; FastBit re-reads their values.
		candidates := 0
		for _, b := range []int{loBin, hiBin} {
			candidates += col.bitmaps[b].Popcount()
			if loBin == hiBin {
				break
			}
		}
		cpu.charge(trace, float64(candidates)*cpu.SecPerCandidate)
		for _, b := range []int{loBin, hiBin} {
			col.bitmaps[b].ForEachSet(func(row int) {
				v := col.values[row]
				if v < cond.Lo || v >= cond.Hi {
					dim.Clear(row)
				}
			})
			if loBin == hiBin {
				break
			}
		}

		if dimIdx == 0 {
			result = dim
			continue
		}
		// AND with the running result: dimension results are hot.
		emit(workload.OpSpec{Op: sense.OpAND, Operands: 2, Bits: t.rows, CacheResident: true})
		result.And(result, dim)
	}

	// Result extraction: popcount + per-match record fetch.
	cpu.charge(trace, float64(bitvec.WordsFor(t.rows))*cpu.SecPerWord)
	cpu.charge(trace, float64(result.Popcount())*cpu.SecPerMatch)
	return result, nil
}

// BruteForce answers the query by scanning raw values (validation oracle).
func (t *Table) BruteForce(q Query) (*bitvec.Vector, error) {
	if len(q.Conds) == 0 {
		return nil, fmt.Errorf("fastbit: empty query")
	}
	res := bitvec.New(t.rows)
	res.SetAll()
	for _, cond := range q.Conds {
		col, ok := t.cols[cond.Col]
		if !ok {
			return nil, fmt.Errorf("fastbit: unknown column %q", cond.Col)
		}
		for row, v := range col.values {
			if v < cond.Lo || v >= cond.Hi {
				res.Clear(row)
			}
		}
	}
	return res, nil
}

// SyntheticSTAR builds the synthetic detector-event table: `rows` events
// with heavy-tailed energy, transverse momentum and pseudo-rapidity
// distributions, indexed at nbins bins per attribute.
func SyntheticSTAR(rows, nbins int, seed int64) (*Table, error) {
	t, err := NewTable(rows)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	energy := make([]float64, rows)
	pt := make([]float64, rows)
	eta := make([]float64, rows)
	for i := 0; i < rows; i++ {
		energy[i] = rng.ExpFloat64() * 10           // GeV, exponential tail
		pt[i] = math.Abs(rng.NormFloat64())*2 + 0.1 // GeV/c
		eta[i] = rng.NormFloat64() * 1.5            // pseudo-rapidity
	}
	for _, col := range []struct {
		name string
		vals []float64
	}{{"energy", energy}, {"pt", pt}, {"eta", eta}} {
		if err := t.AddColumn(col.name, col.vals, nbins); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RandomQuery draws a multi-dimensional range query with per-dimension
// selectivity around `sel` (fraction of the value population).
func (t *Table) RandomQuery(rng *rand.Rand, sel float64) Query {
	var q Query
	for _, name := range t.order {
		col := t.cols[name]
		span := min(max(int(sel*float64(col.NBins())), 1), col.NBins())
		lo := rng.Intn(col.NBins() - span + 1)
		q.Conds = append(q.Conds, RangeCond{
			Col: name,
			Lo:  col.edges[lo],
			Hi:  col.edges[lo+span],
		})
	}
	return q
}

// Workload runs a batch of `queries` random queries (the paper's 240/480/
// 720 workloads), returning the trace and the total matches (for tests).
func Workload(t *Table, queries int, mapper pimrt.Mapper, cpu CPUWork, seed int64) (*workload.Trace, int, error) {
	trs, matches, err := Workloads(t, []int{queries}, mapper, cpu, seed)
	if err != nil {
		return nil, 0, err
	}
	return trs[0], matches[0], nil
}

// Workloads runs one stream of random queries, as long as the largest
// batch, and returns for each batch size (ascending) the trace and total
// matches of the stream's first `size` queries. The batches share one
// seed, so each is a prefix of the longest, and all of them together cost
// one run of the longest.
func Workloads(t *Table, batches []int, mapper pimrt.Mapper, cpu CPUWork, seed int64) ([]*workload.Trace, []int, error) {
	for i, n := range batches {
		if n < 0 || (i > 0 && n < batches[i-1]) {
			return nil, nil, fmt.Errorf("fastbit: batch sizes %v must be non-negative and ascending", batches)
		}
	}
	var (
		run     workload.Trace
		rng     = rand.New(rand.NewSource(seed))
		total   int
		traces  = make([]*workload.Trace, 0, len(batches))
		matches = make([]int, 0, len(batches))
	)
	for done := 0; ; done++ {
		for len(traces) < len(batches) && batches[len(traces)] == done {
			traces = append(traces, &workload.Trace{
				Name:  fmt.Sprintf("fastbit-%d", done),
				Ops:   slices.Clone(run.Ops),
				Other: run.Other,
			})
			matches = append(matches, total)
		}
		if len(traces) == len(batches) {
			return traces, matches, nil
		}
		q := t.RandomQuery(rng, 0.2+0.2*rng.Float64())
		res, err := t.Evaluate(q, mapper, cpu, &run)
		if err != nil {
			return nil, nil, err
		}
		total += res.Popcount()
	}
}
