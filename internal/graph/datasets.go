package graph

import (
	"fmt"
	"slices"
)

// Dataset is one of the evaluation's graph workloads. The originals
// (dblp-2010, eswiki-2013, amazon-2008 from the LAW collection) are
// replaced by synthetic generators scaled to simulator-friendly sizes while
// preserving the property the paper's analysis hinges on: dblp is dense and
// tightly connected (bitmap BFS does real work every level), while eswiki
// and amazon are "loose" (BFS spends its time scanning for unvisited
// vertices across many small components).
type Dataset struct {
	Name string
	// Loose marks the datasets the paper calls "loose".
	Loose bool
	// Build generates the graph deterministically.
	Build func() (*Graph, error)
}

// Datasets returns the three graph workloads of Table 1.
func Datasets() []Dataset {
	return []Dataset{
		{
			Name: "dblp",
			Build: func() (*Graph, error) {
				g, err := RMAT(14, 16, 0xD1B0)
				if err != nil {
					return nil, err
				}
				return connectIsolated(g), nil
			},
		},
		{
			Name:  "eswiki",
			Loose: true,
			Build: func() (*Graph, error) { return ErdosRenyi(1<<15, 0.8, 0xE5) },
		},
		{
			Name:  "amazon",
			Loose: true,
			Build: func() (*Graph, error) { return ErdosRenyi(1<<15, 1.3, 0xA2) },
		},
	}
}

// DatasetByName returns the named dataset.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("graph: unknown dataset %q", name)
}

// connectIsolated stitches all components of an RMAT sample into a single
// one by attaching every component's representative (its BFS root)
// star-wise to the first component's root, so the stitching adds at most
// two levels (dblp's largest component covers almost the whole
// collaboration graph; the workload models it as fully connected). The
// hub edges are appended to copies of g's lists, which are re-sorted.
func connectIsolated(g *Graph) *Graph {
	ref := ReferenceBFS(g)
	adj := slices.Clone(g.adj)
	hub := -1
	for v := 0; v < g.n; v++ {
		if ref.Level[v] != 0 {
			continue
		}
		if hub < 0 {
			hub = v
			adj[hub] = slices.Clip(adj[hub])
			continue
		}
		adj[hub] = append(adj[hub], int32(v))
		adj[v] = append(slices.Clip(adj[v]), int32(hub))
		slices.Sort(adj[v])
	}
	slices.Sort(adj[hub])
	return &Graph{n: g.n, adj: adj}
}
