package hybrid

import (
	"fmt"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/l0"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// This file decodes a hybrid-wrapped spanning sketch without first spilling
// everything: components made only of unspilled vertices never touch a
// sampler. The machinery rests on the same identity the pure sketch uses —
// for a vertex set S, Σ_{v∈S} a_v is supported exactly on δ(S) — except
// that an unspilled member's a_v is available literally: its buffer holds
// every (edge, net weight) pair, so its incidence coefficients
// (|e|−1 at the min endpoint, −1 elsewhere) can be summed exactly. A
// component therefore accumulates the exact part of its cut vector in a
// map, and only if some member is spilled does it clone and sum samplers,
// injecting the exact part into the sampler by linearity (Sampler.Update is
// the same linear map the stream would have applied).

// SpanningGraph decodes a spanning graph when the inner sketch is a
// *sketch.SpanningSketch: a subgraph with the same connected components, at
// most n−1 hyperedges. If no vertex is spilled the decode is fully exact —
// deterministic, no sampler draws, and it cannot fail. Otherwise it runs
// the Boruvka process with per-component cut samplers assembled from
// buffers and spilled samplers, returning sketch.ErrDecodeFailed if the
// rounds are exhausted before every component is resolved or certified.
func (s *Sketch) SpanningGraph() (*graph.Hypergraph, error) {
	return s.SpanningGraphTraced(nil)
}

// SpanningGraphTraced is SpanningGraph with the decode span hung under
// parent (nil starts a fresh trace). The all-exact fast path emits a
// trace-only span so recorded trees show which route a decode took.
func (s *Sketch) SpanningGraphTraced(parent *obs.Span) (*graph.Hypergraph, error) {
	sp, ok := s.inner.(*sketch.SpanningSketch)
	if !ok {
		return nil, fmt.Errorf("hybrid: SpanningGraph needs a *sketch.SpanningSketch inner, have %T", s.inner)
	}
	s.observeOccupancy()
	if s.SpilledCount() == 0 {
		hm.exactDecodes.Inc()
		return s.exactSpanningTraced(parent)
	}
	hm.mixedDecodes.Inc()
	return s.mixedSpanning(parent, sp)
}

// Connected decodes and reports whether the sketched hypergraph is
// connected over all n vertices.
func (s *Sketch) Connected() (bool, error) {
	f, err := s.SpanningGraph()
	if err != nil {
		return false, err
	}
	return graphalg.Connected(f), nil
}

// Components decodes and returns the connected components.
func (s *Sketch) Components() (*graphalg.DSU, error) {
	f, err := s.SpanningGraph()
	if err != nil {
		return nil, err
	}
	return graphalg.ComponentsOf(f), nil
}

// Decode decodes whatever certificate the inner sketch type supports: the
// mixed spanning decode for a spanning inner, and — for a skeleton inner —
// the unchanged Theorem 14 peeling, run on a clone with every buffer
// spilled first (the spill invariant makes the clone's inner byte-identical
// to a pure skeleton of the stream).
func (s *Sketch) Decode() (*graph.Hypergraph, error) {
	return s.DecodeTraced(nil)
}

// DecodeTraced is Decode with the decode spans hung under parent (nil
// starts a fresh trace).
func (s *Sketch) DecodeTraced(parent *obs.Span) (*graph.Hypergraph, error) {
	switch s.inner.(type) {
	case *sketch.SpanningSketch:
		return s.SpanningGraphTraced(parent)
	case *sketch.SkeletonSketch:
		cp, err := s.Clone()
		if err != nil {
			return nil, err
		}
		if err := cp.SpillAll(); err != nil {
			return nil, err
		}
		return cp.inner.(*sketch.SkeletonSketch).SkeletonTraced(parent)
	}
	return nil, fmt.Errorf("hybrid: no decoder for inner type %T", s.inner)
}

// exactSpanning builds a spanning forest directly from the buffers: every
// present edge appears in each endpoint's buffer with its net weight, so
// scanning entries at their min endpoint enumerates the edge multiset
// exactly once, and a DSU keeps only component-merging edges.
func (s *Sketch) exactSpanningTraced(parent *obs.Span) (*graph.Hypergraph, error) {
	span := parent.Child("hybrid.exact_spanning", nil)
	defer span.End()
	f, err := s.exactSpanning()
	if f != nil {
		span.SetAttrs("n", s.dom.N(), "edges", len(f.Edges()))
	}
	return f, err
}

func (s *Sketch) exactSpanning() (*graph.Hypergraph, error) {
	n := s.dom.N()
	forest := graph.MustHypergraph(n, s.dom.R())
	d := graphalg.NewDSU(n)
	for v := 0; v < n; v++ {
		for _, key := range s.keys[v] {
			e, err := s.dom.Decode(key)
			if err != nil {
				return nil, err
			}
			if e[0] != v {
				continue
			}
			merged := false
			for j := 1; j < len(e); j++ {
				if d.Union(e[0], e[j]) {
					merged = true
				}
			}
			if merged {
				forest.MustAddEdge(e, 1)
			}
		}
	}
	return forest, nil
}

// mixedSpanning is the Boruvka decode over mixed exact/spilled components;
// it mirrors SpanningSketch.SpanningGraph with sampleCut supplying each
// component's cut edge.
func (s *Sketch) mixedSpanning(parent *obs.Span, sp *sketch.SpanningSketch) (*graph.Hypergraph, error) {
	span := parent.Child("hybrid.spanning_graph", hm.decodeSpan)
	defer span.End()
	n := s.dom.N()
	forest := graph.MustHypergraph(n, s.dom.R())
	d := graphalg.NewDSU(n)
	done := make(map[int]bool)
	rounds := sp.Rounds()

	for t := 0; t < rounds; t++ {
		groups := d.Groups()
		active := 0
		for root := range groups {
			if !done[root] {
				active++
			}
		}
		if active <= 1 {
			span.SetAttrs("n", n, "rounds", t)
			return forest, nil
		}
		s.peelRound(span, sp, t, d, groups, done, forest)
	}

	// Rounds exhausted: complete only if every remaining component's cut is
	// certified empty.
	for root, members := range d.Groups() {
		if done[root] {
			continue
		}
		if _, ok, empty := s.sampleCut(sp, rounds-1, members); ok || !empty {
			obs.RecordEvent("sketch.decode_failure",
				"structure", "hybrid", "n", n, "rounds", rounds,
				"spilled", s.SpilledCount())
			return nil, sketch.ErrDecodeFailed
		}
	}
	span.SetAttrs("n", n, "rounds", rounds)
	return forest, nil
}

// peelRound runs one mixed Boruvka round under a trace-only child span,
// mirroring SpanningSketch.peelRound with sampleCut supplying each
// component's cut edge.
func (s *Sketch) peelRound(parent *obs.Span, sp *sketch.SpanningSketch, t int, d *graphalg.DSU, groups map[int][]int, done map[int]bool, forest *graph.Hypergraph) {
	rsp := parent.Child("hybrid.peel_round", nil)
	defer rsp.End()
	draws, recovered := 0, 0
	var merges []graph.Hyperedge
	for root, members := range groups {
		if done[root] {
			continue
		}
		draws++
		key, ok, empty := s.sampleCut(sp, t, members)
		if !ok {
			if empty {
				done[root] = true
			}
			continue
		}
		e, err := s.dom.Decode(key)
		if err != nil {
			// Fingerprint false positive from a sampler draw; treat as
			// a failed sample for this round.
			continue
		}
		merges = append(merges, e)
	}
	for _, e := range merges {
		merged := false
		for i := 1; i < len(e); i++ {
			if d.Union(e[0], e[i]) {
				merged = true
			}
		}
		if merged {
			forest.MustAddEdge(e, 1)
			recovered++
		}
	}
	rsp.SetAttrs("round", t, "draws", draws, "edges", recovered)
}

// sampleCut draws one edge from the cut of the component given by members,
// using round t's samplers for spilled members and the exact buffers for
// the rest. It returns the edge key and ok=true on success; otherwise
// empty=true iff the cut is certified empty (exactly, for an all-exact
// component; by the zero-sampler certificate when spilled members are
// involved).
func (s *Sketch) sampleCut(sp *sketch.SpanningSketch, t int, members []int) (key uint64, ok, empty bool) {
	// Exact part of the cut vector: Σ over unspilled members v of
	// coeff_e(v)·w for every buffered edge. Edges fully inside the exact
	// part of the component cancel here (their coefficients sum to zero);
	// edges shared with spilled members cancel later, inside the sampler.
	var acc map[uint64]int64
	anySpilled := false
	for _, v := range members {
		if s.spilled[v] {
			anySpilled = true
			continue
		}
		for i, k := range s.keys[v] {
			e, err := s.dom.Decode(k)
			if err != nil {
				return 0, false, false
			}
			coeff := int64(-1)
			if e[0] == v {
				coeff = int64(len(e)) - 1
			}
			if acc == nil {
				acc = make(map[uint64]int64)
			}
			acc[k] += coeff * s.ws[v][i]
		}
	}
	if !anySpilled {
		hm.exactComponents.Inc()
		// The accumulator is the whole cut vector: pick its smallest
		// nonzero key, deterministically — no sampler draw.
		best, found := uint64(0), false
		for k, net := range acc {
			if net != 0 && (!found || k < best) {
				best, found = k, true
			}
		}
		if !found {
			return 0, false, true
		}
		return best, true, false
	}
	hm.mixedComponents.Inc()
	var sum *l0.Sampler
	for _, v := range members {
		if !s.spilled[v] {
			continue
		}
		if sum == nil {
			sum = sp.SamplerAt(t, v).Clone()
			continue
		}
		// Same round => same seed: AddScaled cannot fail.
		if err := sum.AddScaled(sp.SamplerAt(t, v), 1); err != nil {
			panic(err)
		}
	}
	// Inject the exact part: Sampler.Update is the same linear map the
	// stream applies, so afterwards sum sketches the component's full cut
	// vector, exact cancellations included.
	for k, net := range acc {
		if net != 0 {
			sum.Update(k, net)
		}
	}
	key, _, ok = sum.Sample()
	if !ok {
		return 0, false, sum.IsZero()
	}
	return key, true, false
}

// observeOccupancy records the buffer-occupancy distribution and spill
// gauge at decode time (the natural low-frequency observation point).
func (s *Sketch) observeOccupancy() {
	if hm.occupancy == nil && hm.spilledVerts == nil {
		return
	}
	spilled := 0
	for v := range s.spilled {
		if s.spilled[v] {
			spilled++
			continue
		}
		hm.occupancy.Observe(float64(2*len(s.keys[v])) / float64(s.budget))
	}
	hm.spilledVerts.Set(float64(spilled))
}
