// Package graph provides the graph-processing workload of the evaluation:
// synthetic graph generators standing in for the paper's dblp-2010,
// eswiki-2013 and amazon-2008 datasets (see DESIGN.md for the substitution
// rationale), and a bitmap-based BFS whose frontier expansion is exactly
// the bulk OR Pinatubo accelerates — the next frontier is the OR of the
// adjacency bit-rows of every frontier vertex, masked by the unvisited set.
package graph

import (
	"fmt"
	"math/rand"
	"slices"

	"pinatubo/internal/bitvec"
)

// Graph is an undirected graph in adjacency-list form.
type Graph struct {
	n   int
	adj [][]int32
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns v's adjacency list (not a copy; callers must not
// mutate).
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// AdjacencyBitmap returns vertex v's adjacency row as an n-bit vector —
// the representation the PIM memory stores one row per vertex.
func (g *Graph) AdjacencyBitmap(v int) *bitvec.Vector {
	row := bitvec.New(g.n)
	for _, u := range g.adj[v] {
		row.Set(int(u))
	}
	return row
}

// newGraph builds a Graph from an edge set (deduplicated, no self-loops).
// Every list is a capacity-capped window of one backing array, sorted
// ascending, so the lists (and everything downstream: host BFS traversal
// order, frontier construction) do not inherit map iteration order.
func newGraph(n int, edges map[[2]int32]bool) *Graph {
	off := make([]int, n+1)
	for e := range edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	backing := make([]int32, off[n])
	g := &Graph{n: n, adj: make([][]int32, n)}
	for v := range g.adj {
		g.adj[v] = backing[off[v]:off[v]:off[v+1]]
	}
	for e := range edges {
		u, v := e[0], e[1]
		//pinlint:ignore maporder every list is sorted below
		g.adj[u] = append(g.adj[u], v)
		//pinlint:ignore maporder every list is sorted below
		g.adj[v] = append(g.adj[v], u)
	}
	for _, a := range g.adj {
		slices.Sort(a)
	}
	return g
}

func addEdge(edges map[[2]int32]bool, u, v int32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	edges[[2]int32{u, v}] = true
}

// ErdosRenyi generates a uniform random graph with the given average
// degree. Low average degrees (<2) produce the paper's "loose" graphs:
// many small components, so BFS spends its time scanning for unvisited
// vertices rather than computing.
func ErdosRenyi(n int, avgDegree float64, seed int64) (*Graph, error) {
	if n <= 1 {
		return nil, fmt.Errorf("graph: need n > 1, got %d", n)
	}
	if avgDegree < 0 {
		return nil, fmt.Errorf("graph: negative average degree %g", avgDegree)
	}
	if avgDegree > float64(n-1) {
		return nil, fmt.Errorf("graph: average degree %g exceeds n-1 = %d", avgDegree, n-1)
	}
	return newGraph(n, erdosRenyiEdges(n, avgDegree, seed)), nil
}

// erdosRenyiEdges draws ErdosRenyi's edge set; avgDegree <= n-1 bounds the
// draw by the n(n-1)/2 distinct edges.
func erdosRenyiEdges(n int, avgDegree float64, seed int64) map[[2]int32]bool {
	rng := rand.New(rand.NewSource(seed))
	edgeCount := int(avgDegree * float64(n) / 2)
	edges := make(map[[2]int32]bool, edgeCount)
	for len(edges) < edgeCount {
		addEdge(edges, int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return edges
}

// RMAT generates a power-law graph (Chakrabarti et al.) with 2^scale
// vertices and edgeFactor × n edges, the standard stand-in for social and
// citation networks like dblp. Dense, tightly connected — the favourable
// case for bitmap BFS.
func RMAT(scale, edgeFactor int, seed int64) (*Graph, error) {
	if scale < 1 || scale > 24 {
		return nil, fmt.Errorf("graph: RMAT scale %d outside 1..24", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graph: RMAT edge factor %d", edgeFactor)
	}
	return newGraph(1<<scale, rmatEdges(scale, edgeFactor, seed)), nil
}

// rmatEdges draws RMAT's edge set.
func rmatEdges(scale, edgeFactor int, seed int64) map[[2]int32]bool {
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19 // standard Graph500 parameters
	edges := make(map[[2]int32]bool, n*edgeFactor)
	target := n * edgeFactor
	for attempts := 0; len(edges) < target && attempts < target*20; attempts++ {
		u, v := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a: // top-left
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		addEdge(edges, int32(u), int32(v))
	}
	return edges
}

// BFSResult records a breadth-first traversal.
type BFSResult struct {
	// Level[v] is the BFS depth of v, or -1 if unreachable from the roots
	// explored.
	Level []int
	// Levels is the number of non-empty frontier expansions performed.
	Levels int
	// Visited is the number of reached vertices.
	Visited int
	// Components is the number of BFS restarts (connected components).
	Components int
}

// ReferenceBFS is the scalar queue-based BFS over all components, used to
// validate the bitmap implementation.
func ReferenceBFS(g *Graph) BFSResult {
	level := make([]int, g.n)
	for i := range level {
		level[i] = -1
	}
	res := BFSResult{Level: level}
	queue := make([]int32, 0, g.n)
	for root := 0; root < g.n; root++ {
		if level[root] != -1 {
			continue
		}
		res.Components++
		level[root] = 0
		res.Visited++
		queue = append(queue[:0], int32(root))
		for len(queue) > 0 {
			next := queue[:0:0]
			advanced := false
			for _, v := range queue {
				for _, u := range g.adj[v] {
					if level[u] == -1 {
						level[u] = level[v] + 1
						res.Visited++
						next = append(next, u)
						advanced = true
					}
				}
			}
			if advanced {
				res.Levels++
			}
			queue = next
		}
	}
	return res
}
