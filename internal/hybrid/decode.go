package hybrid

import (
	"fmt"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// This file decodes a hybrid-wrapped sketch without spilling anything:
// components made only of unspilled vertices never touch a sampler. The
// machinery rests on the same identity the pure sketch uses — for a vertex
// set S, Σ_{v∈S} a_v is supported exactly on δ(S) — except that an
// unspilled member's a_v is available literally: its buffer holds every
// (edge, net weight) pair, which is exactly an exact row in sketch.NewCut's
// sense. The one Borůvka cut sums those rows with the incidence
// coefficients and injects what is left into a scratch sampler beside the
// members' samplers, by linearity.

// Decode decodes whatever certificate the inner sketch type supports, with
// the decode spans hung under parent (nil starts a fresh trace). It only
// reads the hybrid: buffers, spill flags and inner stay as they were.
//
// For a spanning inner it returns a spanning graph: a subgraph with the
// same connected components, at most n−1 hyperedges. If no vertex is
// spilled the decode is fully exact — deterministic, no sampler draws, and
// it cannot fail. Otherwise it runs sketch.Peel over sketch.NewCut with the
// spilled members' samplers and the unspilled members' buffers, returning
// sketch.ErrDecodeFailed if the rounds are exhausted before every component
// is resolved or certified.
//
// For a skeleton inner it runs Theorem 14's peeling with the buffers as
// exact rows beside every member's layer samplers (an unspilled vertex's
// share of them is zero), so the forests are those of a pure skeleton of
// the stream.
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
		return inner.SkeletonWith(parent, s.buffer)
	}
	return nil, fmt.Errorf("hybrid: no decoder for inner type %T", s.inner)
}

// buffer is the hybrid's exact rows: v's buffered keys and net weights
// (empty once v is spilled).
func (s *Sketch) buffer(v int) ([]uint64, []int64) { return s.keys[v], s.ws[v] }

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
// sketch.Peel over sketch.NewCut, summing the spilled members' samplers and
// the unspilled members' buffers.
func (s *Sketch) mixedSpanning(parent *obs.Span, sp *sketch.SpanningSketch) (*graph.Hypergraph, error) {
	span := parent.Child("hybrid.spanning_graph", hm.decodeSpan)
	defer span.End()
	n := s.dom.N()
	draw := sketch.NewCut(sp, s.Spilled, s.buffer)
	cut := func(t int, members []int) (uint64, bool, bool) {
		s.countComponent(members)
		return draw(t, members)
	}
	forest, rounds, err := sketch.Peel(span, s.dom, sp.Rounds(), cut)
	if err != nil {
		obs.RecordEvent("sketch.decode_failure",
			"structure", "hybrid", "n", n, "rounds", rounds,
			"spilled", s.SpilledCount())
		return nil, err
	}
	span.SetAttrs("n", n, "rounds", rounds)
	return forest, nil
}

// countComponent counts a mixed-decode cut query as exact (no member
// spilled, so the buffers answer it) or mixed (it draws from samplers).
func (s *Sketch) countComponent(members []int) {
	for _, v := range members {
		if s.spilled[v] {
			hm.mixedComponents.Inc()
			return
		}
	}
	hm.exactComponents.Inc()
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
