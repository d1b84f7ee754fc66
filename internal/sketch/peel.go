package sketch

import (
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
)

// Peel runs the Boruvka process of Ahn et al. over dom's vertices: in each
// of up to rounds rounds, every live component asks cut for one hyperedge
// leaving it, and components merge along the sampled edges. It returns the
// forest of component-merging edges and the number of rounds used.
//
// cut(t, members) answers for the component with the given members
// (ascending) using round t's randomness: the key of an edge in the
// component's cut and ok=true, or ok=false with empty=true iff the cut is
// certified empty. A certified-empty component is done and is not asked
// again. Live components are visited in ascending root order, so a decode
// of a given state always returns the same forest. A key that fails to
// decode (a fingerprint false positive) counts as a failed sample.
//
// Peel returns ErrDecodeFailed when the rounds run out while some live
// component's cut, asked once more with the last round's randomness, is
// not certified empty. Each round gets a trace-only sketch.peel_round child
// of parent carrying the cuts drawn and edges recovered.
func Peel(parent *obs.Span, dom graph.Domain, rounds int, cut func(t int, members []int) (key uint64, ok, empty bool)) (forest *graph.Hypergraph, roundsUsed int, err error) {
	n := dom.N()
	p := &peeler{
		dom:     dom,
		cut:     cut,
		forest:  graph.MustHypergraph(n, dom.R()),
		dsu:     graphalg.NewDSU(n),
		done:    make([]bool, n),
		members: make([][]int, n),
	}
	for t := 0; t < rounds; t++ {
		if len(p.live()) <= 1 {
			return p.forest, t, nil
		}
		p.round(parent, t)
	}
	// Rounds exhausted: the forest is complete only if every remaining
	// component's cut is certified empty.
	for _, root := range p.live() {
		if _, ok, empty := cut(rounds-1, p.members[root]); ok || !empty {
			return nil, rounds, ErrDecodeFailed
		}
	}
	return p.forest, rounds, nil
}

// peeler is Peel's state between rounds.
type peeler struct {
	dom    graph.Domain
	cut    func(t int, members []int) (key uint64, ok, empty bool)
	forest *graph.Hypergraph
	dsu    *graphalg.DSU
	// done[root] marks components whose cut was certified empty.
	done []bool
	// members[root] lists a live component's vertices, ascending; roots
	// lists the live roots, ascending. live refills both.
	members [][]int
	roots   []int
}

// live refreshes and returns the roots of the components not yet done.
func (p *peeler) live() []int {
	p.roots = p.roots[:0]
	for v := range p.members {
		p.members[v] = p.members[v][:0]
	}
	for v := range p.members {
		r := p.dsu.Find(v)
		if p.done[r] {
			continue
		}
		if r == v {
			p.roots = append(p.roots, v)
		}
		p.members[r] = append(p.members[r], v)
	}
	return p.roots
}

// round runs Boruvka round t over the components live() last listed.
func (p *peeler) round(parent *obs.Span, t int) {
	rsp := parent.Child("sketch.peel_round", nil)
	defer rsp.End()
	var merges []graph.Hyperedge
	for _, root := range p.roots {
		key, ok, empty := p.cut(t, p.members[root])
		if !ok {
			p.done[root] = empty
			continue
		}
		if e, err := p.dom.Decode(key); err == nil {
			merges = append(merges, e)
		}
	}
	recovered := 0
	for _, e := range merges {
		merged := false
		for i := 1; i < len(e); i++ {
			if p.dsu.Union(e[0], e[i]) {
				merged = true
			}
		}
		if merged {
			p.forest.MustAddEdge(e, 1)
			recovered++
		}
	}
	rsp.SetAttrs("round", t, "draws", len(p.roots), "edges", recovered)
}
