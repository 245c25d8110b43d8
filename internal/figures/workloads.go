// Package figures regenerates every table and figure of the paper's
// evaluation section (Table 1, Figs. 9–13) from the simulator. Each Fig*
// function returns structured rows; Format* helpers render the aligned
// text tables that cmd/figures prints and EXPERIMENTS.md records.
package figures

import (
	"fmt"
	"math/rand"

	"pinatubo/internal/baseline/acpim"
	"pinatubo/internal/baseline/sdram"
	"pinatubo/internal/baseline/simd"
	"pinatubo/internal/fastbit"
	"pinatubo/internal/graph"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/pimrt"
	"pinatubo/internal/workload"
)

// VectorWorkload is one of Table 1's synthetic Vector entries:
// "19-16-7s" = 2^19-bit vectors, 2^16 vectors, 2^7-row OR requests,
// sequentially (s) or randomly (r) placed.
type VectorWorkload struct {
	Name     string
	LenLog   int // log2 of vector length in bits
	CountLog int // log2 of vector count
	RowsLog  int // log2 of operands per OR request
	Random   bool
}

// VectorWorkloads returns Table 1's five Vector entries.
func VectorWorkloads() []VectorWorkload {
	return []VectorWorkload{
		{"19-16-1s", 19, 16, 1, false},
		{"19-16-7s", 19, 16, 7, false},
		{"14-12-7s", 14, 12, 7, false},
		{"14-16-7s", 14, 16, 7, false},
		{"14-16-7r", 14, 16, 7, true},
	}
}

// BuildVectorTrace expands a vector workload into a request trace: the
// 2^CountLog vectors are consumed 2^RowsLog at a time by OR requests.
// Sequential workloads enjoy the allocator's subarray affinity; random ones
// scatter operands across the memory, which is what demotes the requests to
// inter-subarray/bank placements.
func BuildVectorTrace(w VectorWorkload) (*workload.Trace, error) {
	mapper, err := pimrt.NewMapper(memarch.Default())
	if err != nil {
		return nil, err
	}
	bits := 1 << w.LenLog
	vectors := 1 << w.CountLog
	perOp := 1 << w.RowsLog
	if perOp < 2 {
		perOp = 2
	}
	rng := rand.New(rand.NewSource(0x7EC7 + int64(w.LenLog)))
	tr := &workload.Trace{Name: w.Name}

	// Rows per logical vector (vectors longer than a rank row span several
	// physical rows; the mapper IDs below stay per-vector).
	rowBits := memarch.Default().RowBits()
	rowsPerVec := (bits + rowBits - 1) / rowBits

	ids := make([]int, perOp)
	for done := 0; done+perOp <= vectors; done += perOp {
		for i := 0; i < perOp; i++ {
			if w.Random {
				ids[i] = rng.Intn(vectors) * rowsPerVec
			} else {
				ids[i] = (done + i) * rowsPerVec
			}
		}
		// Random draws may collide; nudge duplicates to keep rows distinct.
		seen := map[int]bool{}
		for i := range ids {
			for seen[ids[i]] {
				ids[i] = (ids[i] + rowsPerVec) % (vectors * rowsPerVec)
			}
			seen[ids[i]] = true
		}
		spec, err := mapper.SpecForIDs(ids, bits)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		tr.Append(spec)
	}
	return tr, nil
}

// GraphTrace builds the bitmap-BFS trace for a named graph dataset.
func GraphTrace(name string) (*workload.Trace, error) {
	d, err := graph.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	g, err := d.Build()
	if err != nil {
		return nil, err
	}
	mapper, err := pimrt.NewMapper(memarch.Default())
	if err != nil {
		return nil, err
	}
	tr := &workload.Trace{Name: name}
	if _, err := graph.BitmapBFS(g, mapper, graph.DefaultCPUWork(), tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// FastbitTrace builds the bitmap-database trace for a query-batch size
// (Table 1: 240, 480 or 720 queries against the STAR-like event table).
func FastbitTrace(queries int) (*workload.Trace, error) {
	trs, err := fastbitTraces(queries)
	if err != nil {
		return nil, err
	}
	return trs[0], nil
}

// fastbitTraces builds the STAR-like event table once and returns the
// traces of the given ascending query-batch sizes, each the prefix of one
// query stream.
func fastbitTraces(batches ...int) ([]*workload.Trace, error) {
	table, err := fastbit.SyntheticSTAR(1<<17, 64, 0x57A2)
	if err != nil {
		return nil, err
	}
	mapper, err := pimrt.NewMapper(memarch.Default())
	if err != nil {
		return nil, err
	}
	trs, _, err := fastbit.Workloads(table, batches, mapper, fastbit.DefaultCPUWork(), 0xDB)
	return trs, err
}

// NamedTrace is one evaluation workload with its Table 1 grouping.
type NamedTrace struct {
	Group string // "Vector", "Graph", "Fastbit"
	Trace *workload.Trace
}

// AllTraces builds the full 11-workload evaluation set of Figs. 10–11:
// the Vector traces followed by AppTraces.
func AllTraces() ([]NamedTrace, error) {
	var out []NamedTrace
	for _, vw := range VectorWorkloads() {
		tr, err := BuildVectorTrace(vw)
		if err != nil {
			return nil, err
		}
		out = append(out, NamedTrace{Group: "Vector", Trace: tr})
	}
	apps, err := AppTraces()
	if err != nil {
		return nil, err
	}
	return append(out, apps...), nil
}

// AppTraces builds only the two real applications of Fig. 12: the Graph
// traces, then the Fastbit query batches.
func AppTraces() ([]NamedTrace, error) {
	var out []NamedTrace
	for _, name := range []string{"dblp", "eswiki", "amazon"} {
		tr, err := GraphTrace(name)
		if err != nil {
			return nil, err
		}
		out = append(out, NamedTrace{Group: "Graph", Trace: tr})
	}
	trs, err := fastbitTraces(240, 480, 720)
	if err != nil {
		return nil, err
	}
	for _, tr := range trs {
		out = append(out, NamedTrace{Group: "Fastbit", Trace: tr})
	}
	return out, nil
}

// EngineSet bundles the five engines of the comparison.
type EngineSet struct {
	SIMD        workload.Engine // the normalisation baseline (PCM memory)
	SDRAM       workload.Engine
	ACPIM       workload.Engine
	Pinatubo2   workload.Engine
	Pinatubo128 workload.Engine
}

// Engines constructs the evaluation engine set: the SIMD baseline on PCM
// (the memory Pinatubo and AC-PIM use), S-DRAM with a SIMD-on-DRAM
// fallback, AC-PIM, and the two Pinatubo variants.
func Engines() (*EngineSet, error) {
	simdPCM, err := simd.New(simd.HaswellConfig(nvm.PCM))
	if err != nil {
		return nil, err
	}
	simdDRAM, err := simd.New(simd.HaswellConfig(nvm.DRAM))
	if err != nil {
		return nil, err
	}
	sd, err := sdram.New(sdram.DefaultConfig(simdDRAM))
	if err != nil {
		return nil, err
	}
	ac, err := acpim.New(acpim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p2, err := pim.NewEngine(nvm.PCM, 2)
	if err != nil {
		return nil, err
	}
	p128, err := pim.NewEngine(nvm.PCM, 128)
	if err != nil {
		return nil, err
	}
	return &EngineSet{
		SIMD:        simdPCM,
		SDRAM:       sd,
		ACPIM:       ac,
		Pinatubo2:   p2,
		Pinatubo128: p128,
	}, nil
}

// Compared returns the non-baseline engines in figure order.
func (e *EngineSet) Compared() []workload.Engine {
	return []workload.Engine{e.SDRAM, e.ACPIM, e.Pinatubo2, e.Pinatubo128}
}

// newSIMDFor builds the CPU baseline attached to a main memory of the
// given technology.
func newSIMDFor(tech nvm.Tech) (workload.Engine, error) {
	return simd.New(simd.HaswellConfig(tech))
}

// newSIMDPCM is the evaluation's default baseline.
func newSIMDPCM() (workload.Engine, error) { return newSIMDFor(nvm.PCM) }
