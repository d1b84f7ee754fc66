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
// map, and only if some member is spilled does it draw from a sampler sum:
// the spilled members' samplers plus a scratch sampler holding the exact
// part, injected by linearity (Sampler.Update is the same linear map the
// stream would have applied).

// Decode decodes whatever certificate the inner sketch type supports, with
// the decode spans hung under parent (nil starts a fresh trace).
//
// For a spanning inner it returns a spanning graph: a subgraph with the
// same connected components, at most n−1 hyperedges. If no vertex is
// spilled the decode is fully exact — deterministic, no sampler draws, and
// it cannot fail. Otherwise it runs sketch.Peel with per-component cut
// samplers assembled from buffers and spilled samplers, returning
// sketch.ErrDecodeFailed if the rounds are exhausted before every component
// is resolved or certified.
//
// For a skeleton inner it runs the unchanged Theorem 14 peeling on a clone
// with every buffer spilled first (the spill invariant makes the clone's
// inner byte-identical to a pure skeleton of the stream).
func (s *Sketch) Decode(parent *obs.Span) (*graph.Hypergraph, error) {
	switch inner := s.inner.(type) {
	case *sketch.SpanningSketch:
		s.observeOccupancy()
		if s.SpilledCount() == 0 {
			hm.exactDecodes.Inc()
			return s.exactSpanning(parent)
		}
		hm.mixedDecodes.Inc()
		return s.mixedSpanning(parent, inner)
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
// exactly once, and a DSU keeps only component-merging edges. It emits a
// trace-only span so recorded trees show which route a decode took.
func (s *Sketch) exactSpanning(parent *obs.Span) (*graph.Hypergraph, error) {
	span := parent.Child("hybrid.exact_spanning", nil)
	defer span.End()
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
	span.SetAttrs("n", n, "edges", forest.EdgeCount())
	return forest, nil
}

// mixedSpanning is the Boruvka decode over mixed exact/spilled components:
// sketch.Peel with a mixedCut supplying each component's cut edge.
func (s *Sketch) mixedSpanning(parent *obs.Span, sp *sketch.SpanningSketch) (*graph.Hypergraph, error) {
	span := parent.Child("hybrid.spanning_graph", hm.decodeSpan)
	defer span.End()
	n := s.dom.N()
	c := &mixedCut{s: s, sp: sp, acc: make(map[uint64]int64)}
	forest, rounds, err := sketch.Peel(span, s.dom, sp.Rounds(), c.sampleCut)
	if err != nil {
		obs.RecordEvent("sketch.decode_failure",
			"structure", "hybrid", "n", n, "rounds", rounds,
			"spilled", s.SpilledCount())
		return nil, err
	}
	span.SetAttrs("n", n, "rounds", rounds)
	return forest, nil
}

// mixedCut is one mixed decode's cut query and its scratch, reused across
// every component and round of the decode.
type mixedCut struct {
	s  *Sketch
	sp *sketch.SpanningSketch
	// acc accumulates a component's exact cut part: edge key → net
	// coefficient-weighted sum over its unspilled members.
	acc map[uint64]int64
	// exact holds acc as a sampler; sum is SampleSum's scratch; parts
	// lists the samplers summed for one component.
	exact, sum l0.Sampler
	parts      []*l0.Sampler
}

// sampleCut draws one edge from the cut of the component given by members,
// using round t's samplers for spilled members and the exact buffers for
// the rest. It returns the edge key and ok=true on success; otherwise
// empty=true iff the cut is certified empty (exactly, for an all-exact
// component; by the zero-sampler certificate when spilled members are
// involved).
func (c *mixedCut) sampleCut(t int, members []int) (key uint64, ok, empty bool) {
	s := c.s
	// Exact part of the cut vector: Σ over unspilled members v of
	// coeff_e(v)·w for every buffered edge. Edges fully inside the exact
	// part of the component cancel here (their coefficients sum to zero);
	// edges shared with spilled members cancel later, inside the sampler.
	acc := c.acc
	clear(acc)
	c.parts = c.parts[:0]
	for _, v := range members {
		if s.spilled[v] {
			c.parts = append(c.parts, c.sp.SamplerAt(t, v))
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
			acc[k] += coeff * s.ws[v][i]
		}
	}
	if len(c.parts) == 0 {
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
	// Inject the exact part: Sampler.Update is the same linear map the
	// stream applies, so the spilled samplers plus exact sketch the
	// component's full cut vector, exact cancellations included.
	injected := false
	for k, net := range acc {
		if net == 0 {
			continue
		}
		if !injected {
			c.exact.Reset(c.parts[0])
			injected = true
		}
		c.exact.Update(k, net)
	}
	if injected {
		c.parts = append(c.parts, &c.exact)
	}
	key, _, ok, empty = c.sum.SampleSum(c.parts)
	return key, ok, empty
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
