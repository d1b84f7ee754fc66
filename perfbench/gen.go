package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/workload"
)

// RNG stream labels: the update stream and the query choices draw from
// separate generators, so adding a query never shifts the stream.
const (
	labelStream = 0x5354524541
	labelQuery  = 0x5155455259
)

// generator emits a dynamic edge stream in batches and keeps the exact live
// graph it describes, which is the ground truth every answer is checked
// against. Updates are applied to the live graph as they are emitted, so
// after a batch is handed out the live graph is the graph after that batch.
type generator struct {
	n int
	// adj[v] maps each live neighbour of v to the edge's multiplicity; its
	// size is v's degree in distinct neighbours.
	adj     []map[int]int64
	version uint64 // bumped on every applied update
	comps   *graphalg.DSU
	compVer uint64

	rng, qrng *rand.Rand
	pending   []graph.WeightedEdge
	refill    func(g *generator) // appends the next wave to pending; nil ends the stream
}

func newGenerator(n int, seed uint64) *generator {
	g := &generator{
		n:    n,
		adj:  make([]map[int]int64, n),
		rng:  rand.New(rand.NewPCG(seed, labelStream)),
		qrng: rand.New(rand.NewPCG(seed, labelQuery)),
	}
	for v := range g.adj {
		g.adj[v] = make(map[int]int64)
	}
	g.version = 1
	return g
}

// newDenseGen starts with a shuffled Harary(n, k) base (k-vertex-connected,
// every vertex of degree k) followed by endless Erdős–Rényi churn waves of
// about wave edges each: every wave inserts fresh non-edges of the live
// graph, then deletes all of them, in independent random orders.
func newDenseGen(n, k, wave int, seed uint64) *generator {
	g := newGenerator(n, seed)
	g.pending = insertsOf(workload.MustHarary(n, k).Edges())
	g.shuffle(g.pending)
	p := float64(wave) / (float64(n) * float64(n-1) / 2)
	g.refill = func(g *generator) {
		var ins []graph.Hyperedge
		for _, e := range workload.ErdosRenyi(g.rng, g.n, p).Edges() {
			if g.adj[e[0]][e[1]] == 0 {
				ins = append(ins, e)
			}
		}
		adds := insertsOf(ins)
		dels := make([]graph.WeightedEdge, len(adds))
		for i, a := range adds {
			dels[i] = graph.WeightedEdge{E: a.E, W: -1}
		}
		g.shuffle(adds)
		g.shuffle(dels)
		g.pending = append(append(g.pending, adds...), dels...)
	}
	return g
}

// newSparseGen is one finite sparse episode: a SparsePowerLaw graph
// (average degree 4) streamed by BoundaryChurnStream, whose waves push
// random centres across a spill boundary and back.
func newSparseGen(n, boundary, waves int, seed uint64) *generator {
	g := newGenerator(n, seed)
	base := workload.SparsePowerLaw(g.rng, n, 4, 2.5)
	for _, u := range workload.BoundaryChurnStream(g.rng, base, boundary, waves) {
		g.pending = append(g.pending, graph.WeightedEdge{E: u.Edge, W: int64(u.Op)})
	}
	return g
}

func insertsOf(es []graph.Hyperedge) []graph.WeightedEdge {
	out := make([]graph.WeightedEdge, len(es))
	for i, e := range es {
		out[i] = graph.WeightedEdge{E: e, W: 1}
	}
	return out
}

func (g *generator) shuffle(b []graph.WeightedEdge) {
	g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
}

// next returns the next batch of up to size updates, reusing dst's storage.
// A short or empty batch means the stream has ended.
func (g *generator) next(dst []graph.WeightedEdge, size int) ([]graph.WeightedEdge, error) {
	dst = dst[:0]
	for len(dst) < size {
		if len(g.pending) == 0 {
			if g.refill == nil {
				break
			}
			g.refill(g)
			if len(g.pending) == 0 {
				break
			}
		}
		take := min(size-len(dst), len(g.pending))
		for _, u := range g.pending[:take] {
			if err := g.apply(u); err != nil {
				return dst, err
			}
		}
		dst = append(dst, g.pending[:take]...)
		g.pending = g.pending[take:]
	}
	return dst, nil
}

// apply records one update in the live graph. Deleting an absent edge is a
// generator bug and is reported rather than applied.
func (g *generator) apply(u graph.WeightedEdge) error {
	if len(u.E) != 2 || u.E[0] == u.E[1] {
		return fmt.Errorf("generator: %v is not an edge", u.E)
	}
	a, b := u.E[0], u.E[1]
	m := g.adj[a][b] + u.W
	switch {
	case m < 0:
		return fmt.Errorf("generator: deleting absent edge %v", u.E)
	case m == 0:
		delete(g.adj[a], b)
		delete(g.adj[b], a)
	default:
		g.adj[a][b], g.adj[b][a] = m, m
	}
	g.version++
	return nil
}

// graph returns a copy of the live graph.
func (g *generator) graph() *graph.Hypergraph {
	h := graph.NewGraph(g.n)
	for u, nb := range g.adj {
		for v, m := range nb {
			if u < v {
				h.MustAddEdge(graph.MustEdge(u, v), m)
			}
		}
	}
	return h
}

// connected is the exact answer to Connected(u, v) on the live graph.
func (g *generator) connected(u, v int) bool {
	if g.compVer != g.version {
		g.comps = graphalg.NewDSU(g.n)
		for a, nb := range g.adj {
			for b := range nb {
				g.comps.Union(a, b)
			}
		}
		g.compVer = g.version
	}
	return g.comps.Same(u, v)
}

// disconnects is the exact answer to DisconnectedBy(set) on the live graph.
func (g *generator) disconnects(set []int) bool {
	s := make(map[int]bool, len(set))
	for _, v := range set {
		s[v] = true
	}
	return graphalg.DisconnectsQueryMode(g.graph(), s, graph.DropIncident)
}

func (g *generator) pair() (int, int) {
	u := g.qrng.IntN(g.n)
	v := g.qrng.IntN(g.n - 1)
	if v >= u {
		v++
	}
	return u, v
}

// cutQuery returns a removal set of at most k vertices. With separator set
// it is the neighbourhood of a vertex of degree 1..k, which isolates that
// vertex and so truly disconnects the graph; otherwise it is k random
// vertices. Alternating the two makes a sketch that always answers "still
// connected" wrong on about half of the queries.
func (g *generator) cutQuery(k int, separator bool) []int {
	if separator {
		for try := 0; try < 4*g.n; try++ {
			v := g.qrng.IntN(g.n)
			if d := len(g.adj[v]); d >= 1 && d <= k {
				set := make([]int, 0, d)
				for w := range g.adj[v] {
					set = append(set, w)
				}
				sort.Ints(set)
				return set
			}
		}
	}
	set := make([]int, 0, k)
	for len(set) < k {
		v := g.qrng.IntN(g.n)
		if !slices.Contains(set, v) {
			set = append(set, v)
		}
	}
	sort.Ints(set)
	return set
}
