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
		dom:    dom,
		cut:    cut,
		forest: graph.MustHypergraph(n, dom.R()),
		dsu:    graphalg.NewDSU(n),
		done:   make([]bool, n),
		rootOf: make([]int, n),
		start:  make([]int, n),
		end:    make([]int, n),
		flat:   make([]int, n),
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
		if _, ok, empty := cut(rounds-1, p.members(root)); ok || !empty {
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
	// roots lists the live roots, ascending; members(root) lists a live
	// component's vertices, ascending, as flat[start[root]:end[root]].
	// rootOf[v] is v's root, or -1 when v's component is done. live
	// refills them all.
	roots              []int
	rootOf, start, end []int
	flat               []int
}

// live refreshes and returns the roots of the components not yet done. It
// lays every live component's members out in one flat slice, a counting
// sort of the vertices by root.
func (p *peeler) live() []int {
	p.roots = p.roots[:0]
	clear(p.end)
	for v := range p.rootOf {
		r := p.dsu.Find(v)
		if p.done[r] {
			p.rootOf[v] = -1
			continue
		}
		if r == v {
			p.roots = append(p.roots, v)
		}
		p.rootOf[v] = r
		p.end[r]++ // size for now; the placement below turns it into an end
	}
	pos := 0
	for _, r := range p.roots {
		p.start[r] = pos
		pos += p.end[r]
		p.end[r] = p.start[r]
	}
	for v, r := range p.rootOf {
		if r >= 0 {
			p.flat[p.end[r]] = v
			p.end[r]++
		}
	}
	return p.roots
}

// members returns the vertices of the live component rooted at root,
// ascending, as live last laid them out.
func (p *peeler) members(root int) []int { return p.flat[p.start[root]:p.end[root]] }

// round runs Boruvka round t over the components live() last listed.
func (p *peeler) round(parent *obs.Span, t int) {
	rsp := parent.Child("sketch.peel_round", nil)
	defer rsp.End()
	var merges []graph.Hyperedge
	for _, root := range p.roots {
		key, ok, empty := p.cut(t, p.members(root))
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
