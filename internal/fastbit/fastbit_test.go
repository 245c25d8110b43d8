package fastbit

import (
	"math/rand"
	"reflect"
	"testing"

	"pinatubo/internal/memarch"
	"pinatubo/internal/pimrt"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

func mustMapper(t *testing.T) pimrt.Mapper {
	t.Helper()
	m, err := pimrt.NewMapper(memarch.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestColumnBinning(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	c, err := NewColumn("x", values, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.NBins() != 4 || c.Rows() != 8 {
		t.Fatalf("bins=%d rows=%d", c.NBins(), c.Rows())
	}
	// Every row appears in exactly one bin.
	for row := range values {
		count := 0
		for b := 0; b < c.NBins(); b++ {
			if c.Bitmap(b).Get(row) {
				count++
			}
		}
		if count != 1 {
			t.Errorf("row %d in %d bins", row, count)
		}
	}
	// BinOf agrees with bitmap membership.
	for row, v := range values {
		if !c.Bitmap(c.BinOf(v)).Get(row) {
			t.Errorf("BinOf(%g) bin does not contain row %d", v, row)
		}
	}
}

func TestColumnErrors(t *testing.T) {
	if _, err := NewColumn("x", nil, 4); err == nil {
		t.Error("empty column accepted")
	}
	if _, err := NewColumn("x", []float64{1, 2}, 1); err == nil {
		t.Error("1 bin accepted")
	}
	if _, err := NewColumn("x", []float64{1, 2}, 5); err == nil {
		t.Error("more bins than rows accepted")
	}
}

func TestColumnWithHeavyTies(t *testing.T) {
	values := make([]float64, 100)
	for i := 50; i < 100; i++ {
		values[i] = 1
	}
	c, err := NewColumn("ties", values, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for b := 0; b < c.NBins(); b++ {
		total += c.Bitmap(b).Popcount()
	}
	if total != 100 {
		t.Errorf("rows across bins = %d want 100", total)
	}
}

func TestTableConstruction(t *testing.T) {
	tbl, err := NewTable(10)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := tbl.AddColumn("a", vals, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn("a", vals, 2); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := tbl.AddColumn("b", vals[:5], 2); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, ok := tbl.Column("a"); !ok {
		t.Error("column lookup failed")
	}
	if got := tbl.Columns(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Columns=%v", got)
	}
	if _, err := NewTable(0); err == nil {
		t.Error("empty table accepted")
	}
}

func newSTAR(t *testing.T) *Table {
	t.Helper()
	tbl, err := SyntheticSTAR(1<<13, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestEvaluateMatchesBruteForce(t *testing.T) {
	tbl := newSTAR(t)
	mapper := mustMapper(t)
	cpu := DefaultCPUWork()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		q := tbl.RandomQuery(rng, 0.1+0.3*rng.Float64())
		got, err := tbl.Evaluate(q, mapper, cpu, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tbl.BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: bitmap-index result differs from scan (%d vs %d matches)",
				i, got.Popcount(), want.Popcount())
		}
	}
}

func TestEvaluateEmitsExpectedOps(t *testing.T) {
	tbl := newSTAR(t)
	tr := &workload.Trace{}
	rng := rand.New(rand.NewSource(3))
	q := tbl.RandomQuery(rng, 0.4)
	if _, err := tbl.Evaluate(q, mustMapper(t), DefaultCPUWork(), tr); err != nil {
		t.Fatal(err)
	}
	var ors, ands int
	for _, op := range tr.Ops {
		if err := op.Validate(); err != nil {
			t.Fatalf("invalid op: %v", err)
		}
		switch op.Op {
		case sense.OpOR:
			ors++
			if op.Operands < 2 {
				t.Error("bin OR with < 2 operands")
			}
		case sense.OpAND:
			ands++
		}
	}
	// 3 dimensions: up to 3 bin ORs (wide ranges) and exactly 2 ANDs.
	if ands != 2 {
		t.Errorf("ANDs=%d want 2", ands)
	}
	if ors == 0 {
		t.Error("no bin ORs emitted")
	}
	if tr.Other.Seconds <= 0 {
		t.Error("no CPU work charged")
	}
}

func TestEvaluateErrors(t *testing.T) {
	tbl := newSTAR(t)
	mapper := mustMapper(t)
	cpu := DefaultCPUWork()
	if _, err := tbl.Evaluate(Query{}, mapper, cpu, nil); err == nil {
		t.Error("empty query accepted")
	}
	bad := Query{Conds: []RangeCond{{Col: "nope", Lo: 0, Hi: 1}}}
	if _, err := tbl.Evaluate(bad, mapper, cpu, nil); err == nil {
		t.Error("unknown column accepted")
	}
	empty := Query{Conds: []RangeCond{{Col: "energy", Lo: 5, Hi: 5}}}
	if _, err := tbl.Evaluate(empty, mapper, cpu, nil); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := tbl.BruteForce(Query{}); err == nil {
		t.Error("brute force empty query accepted")
	}
}

func TestSyntheticSTARShape(t *testing.T) {
	tbl := newSTAR(t)
	if tbl.Rows() != 1<<13 {
		t.Errorf("rows=%d", tbl.Rows())
	}
	cols := tbl.Columns()
	if len(cols) != 3 {
		t.Fatalf("columns=%v", cols)
	}
	// Energy must be heavy tailed: the top bin spans more value range than
	// the bottom bin (equal-population bins on an exponential).
	c, _ := tbl.Column("energy")
	nb := c.NBins()
	low := c.edges[1] - c.edges[0]
	high := c.edges[nb] - c.edges[nb-1]
	if high <= low {
		t.Error("energy bins not widening — distribution not heavy tailed")
	}
}

func TestWorkloadBatches(t *testing.T) {
	tbl := newSTAR(t)
	tr, matches, err := Workload(tbl, 40, mustMapper(t), DefaultCPUWork(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) < 40 {
		t.Errorf("only %d ops for 40 queries", len(tr.Ops))
	}
	if matches <= 0 {
		t.Error("no matches across the batch — selectivities wrong")
	}
	if tr.Name != "fastbit-40" {
		t.Errorf("trace name %q", tr.Name)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	tbl := newSTAR(t)
	m := mustMapper(t)
	_, m1, err := Workload(tbl, 10, m, DefaultCPUWork(), 9)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := Workload(tbl, 10, m, DefaultCPUWork(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("same seed, different results")
	}
}

func TestWorkloadsAreStreamPrefixes(t *testing.T) {
	tbl := newSTAR(t)
	cpu := DefaultCPUWork()
	batches := []int{0, 6, 6, 15}
	trs, matches, err := Workloads(tbl, batches, mustMapper(t), cpu, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != len(batches) || len(matches) != len(batches) {
		t.Fatalf("%d traces, %d match counts for %d batches", len(trs), len(matches), len(batches))
	}
	for i, n := range batches {
		want, wantMatches, err := Workload(tbl, n, mustMapper(t), cpu, 21)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(trs[i], want) || matches[i] != wantMatches {
			t.Errorf("batch %d (%d queries): prefix of the stream differs from its own run", i, n)
		}
	}
	if &trs[1].Ops[0] == &trs[2].Ops[0] {
		t.Error("batches share one Ops array")
	}
	if _, _, err := Workloads(tbl, []int{8, 4}, mustMapper(t), cpu, 21); err == nil {
		t.Error("descending batch sizes accepted")
	}
	if _, _, err := Workloads(tbl, []int{-1}, mustMapper(t), cpu, 21); err == nil {
		t.Error("negative batch size accepted")
	}
}

func TestRandomQueryClampsSelectivity(t *testing.T) {
	tbl := newSTAR(t)
	rng := rand.New(rand.NewSource(2))
	q := tbl.RandomQuery(rng, 1.5)
	for _, cond := range q.Conds {
		c, _ := tbl.Column(cond.Col)
		if cond.Lo != c.edges[0] || cond.Hi != c.edges[c.NBins()] {
			t.Errorf("%s: [%g,%g) is not the full range [%g,%g)", cond.Col, cond.Lo, cond.Hi, c.edges[0], c.edges[c.NBins()])
		}
	}
	got, err := tbl.Evaluate(q, mustMapper(t), DefaultCPUWork(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Popcount() != tbl.Rows() {
		t.Errorf("full-range query matched %d of %d rows", got.Popcount(), tbl.Rows())
	}
}

func BenchmarkEvaluate(b *testing.B) {
	tbl, err := SyntheticSTAR(1<<13, 32, 7)
	if err != nil {
		b.Fatal(err)
	}
	m, err := pimrt.NewMapper(memarch.Default())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	q := tbl.RandomQuery(rng, 0.3)
	cpu := DefaultCPUWork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Evaluate(q, m, cpu, nil); err != nil {
			b.Fatal(err)
		}
	}
}
