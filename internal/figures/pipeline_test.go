package figures

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pinatubo/internal/fastbit"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/pimrt"
	"pinatubo/internal/workload"
)

// pinnedGmeans are the Fig. 10 and Fig. 12 geometric means of the figure
// pipeline. The paper-figures benchmark oracle holds the same values; they
// are copied here because the benchmark is a separate module. The figures
// are deterministic, so a difference beyond float rounding is a modelling
// change in trace building or pricing.
var pinnedGmeans = map[string]float64{
	"fig10/S-DRAM":               9.7696730597082,
	"fig10/AC-PIM":               5.055116114278498,
	"fig10/Pinatubo-2":           6.404862501185195,
	"fig10/Pinatubo-128":         56.88096395387821,
	"fig12.speedup/S-DRAM":       1.1690871675654306,
	"fig12.speedup/AC-PIM":       1.1549732580608123,
	"fig12.speedup/Pinatubo-2":   1.1252130507093159,
	"fig12.speedup/Pinatubo-128": 1.2056337116637579,
	"fig12.speedup/Ideal":        1.2097682217370804,
	"fig12.energy/S-DRAM":        1.2098179277478895,
	"fig12.energy/AC-PIM":        1.207043090201948,
	"fig12.energy/Pinatubo-2":    1.2086274990339914,
	"fig12.energy/Pinatubo-128":  1.2171447838159104,
	"fig12.energy/Ideal":         1.2177884098591654,
}

func TestFig10Fig12GmeansPinned(t *testing.T) {
	got := map[string]float64{}
	for k, v := range Gmeans(fig10(t)) {
		got["fig10/"+k] = v
	}
	rows12 := fig12(t)
	for k, v := range Fig12Gmeans(rows12, "", false) {
		got["fig12.speedup/"+k] = v
	}
	for k, v := range Fig12Gmeans(rows12, "", true) {
		got["fig12.energy/"+k] = v
	}
	if len(got) != len(pinnedGmeans) {
		t.Errorf("%d gmeans, want %d", len(got), len(pinnedGmeans))
	}
	for k, want := range pinnedGmeans {
		if g, ok := got[k]; !ok || math.Abs(g-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %v, want %v", k, g, want)
		}
	}
}

func TestAllTracesOrder(t *testing.T) {
	var names []string
	for _, nt := range allTraces(t) {
		names = append(names, nt.Group+"/"+nt.Trace.Name)
	}
	want := []string{
		"Vector/19-16-1s", "Vector/19-16-7s", "Vector/14-12-7s", "Vector/14-16-7s", "Vector/14-16-7r",
		"Graph/dblp", "Graph/eswiki", "Graph/amazon",
		"Fastbit/fastbit-240", "Fastbit/fastbit-480", "Fastbit/fastbit-720",
	}
	if !slices.Equal(names, want) {
		t.Errorf("AllTraces order %v, want %v", names, want)
	}
}

// TestEngineSpecCostsMatchFreshEngines prices every distinct request of the
// evaluation on one shared engine, whose memos carry over from spec to
// spec, and on a fresh engine per spec: the costs must be bit-identical.
func TestEngineSpecCostsMatchFreshEngines(t *testing.T) {
	var specs []workload.OpSpec
	seen := map[string]bool{}
	for _, nt := range allTraces(t) {
		for _, spec := range nt.Trace.Ops {
			if k := fmt.Sprintf("%+v", spec); !seen[k] {
				seen[k] = true
				specs = append(specs, spec)
			}
		}
	}
	t.Logf("%d distinct specs", len(specs))
	for _, depth := range []int{2, 128} {
		shared, err := pim.NewEngine(nvm.PCM, depth)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			got, err := shared.OpCost(spec)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := pim.NewEngine(nvm.PCM, depth)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.OpCost(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("depth %d, %+v: shared engine %+v, fresh engine %+v", depth, spec, got, want)
			}
		}
	}
}

// TestFastbitTracesMatchPerBatchRuns checks each Fastbit trace, a prefix of
// one shared query stream, against its own query loop over the batch.
func TestFastbitTracesMatchPerBatchRuns(t *testing.T) {
	table, err := fastbit.SyntheticSTAR(1<<17, 64, 0x57A2)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := pimrt.NewMapper(memarch.Default())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, nt := range allTraces(t) {
		if nt.Group != "Fastbit" {
			continue
		}
		var queries int
		if _, err := fmt.Sscanf(nt.Trace.Name, "fastbit-%d", &queries); err != nil {
			t.Fatal(err)
		}
		want := &workload.Trace{Name: nt.Trace.Name}
		rng := rand.New(rand.NewSource(0xDB))
		for i := 0; i < queries; i++ {
			q := table.RandomQuery(rng, 0.2+0.2*rng.Float64())
			if _, err := table.Evaluate(q, mapper, fastbit.DefaultCPUWork(), want); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(nt.Trace, want) {
			t.Errorf("%s: trace differs from its own %d-query run (%d vs %d ops, other %+v vs %+v)",
				nt.Trace.Name, queries, len(nt.Trace.Ops), len(want.Ops), nt.Trace.Other, want.Other)
		}
		checked++
	}
	if checked != 3 {
		t.Errorf("checked %d Fastbit traces, want 3", checked)
	}
}
