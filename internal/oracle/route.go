package oracle

import (
	"fmt"

	"graphsketch"
	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// route is one sketch type's serving pipeline: the vertex count queries
// range over, the decode that produces the snapshot (its trace hung under
// the span argument, so a recorded rebuild reads oracle.rebuild →
// <structure decode> → … → peel_round), and the DisconnectedBy cap.
type route struct {
	n         int
	decode    func(*obs.Span) (*graph.Hypergraph, error)
	maxRemove int
}

// routeFor is the one map from sketch type to decode route; For, Decode
// and ForCoordinator all read it.
//
//   - spanning: the decoded spanning forest. Connected is exact w.h.p.;
//     DisconnectedBy is one-sided (the forest is a certificate, not G).
//   - skeleton, edgeconn: the decoded k-skeleton, which preserves
//     connectivity and every cut up to k.
//   - hybrid: the wrapper's own decode — exact for components of
//     unspilled vertices (no sampler draws), the pure path otherwise.
//   - vertexconn: Theorem 4's H, the union of the subsampled subgraphs'
//     spanning forests. DisconnectedBy is the paper's query, exact w.h.p.
//     for removal sets up to K, which MaxRemove enforces.
//   - sparsify: the decoded sparsifier, whose cuts (1±ε)-approximate G's,
//     so a zero cut — connectivity — is preserved exactly w.h.p.
func routeFor(s graphsketch.Sketch) (route, error) {
	switch s := s.(type) {
	case *sketch.SpanningSketch:
		return route{n: s.NumVertices(), decode: s.SpanningGraphTraced}, nil
	case *sketch.SkeletonSketch:
		return route{
			n: s.NumVertices(),
			decode: func(sp *obs.Span) (*graph.Hypergraph, error) {
				return s.SkeletonWith(sp, nil)
			},
		}, nil
	case *hybrid.Sketch:
		return route{n: s.NumVertices(), decode: s.Decode}, nil
	case *vertexconn.Sketch:
		return route{
			n: s.NumVertices(),
			decode: func(sp *obs.Span) (*graph.Hypergraph, error) {
				h, _, err := s.BuildHTraced(sp)
				return h, err
			},
			maxRemove: s.Params().K,
		}, nil
	case *edgeconn.Sketch:
		return route{n: s.NumVertices(), decode: s.SkeletonTraced}, nil
	case *sparsify.Sketch:
		return route{n: s.NumVertices(), decode: s.SparsifierTraced}, nil
	}
	return route{}, fmt.Errorf("oracle: no decode route for %T: %w", s, ErrNoDecodeRoute)
}

// For returns an Oracle over one of the library's decodable sketches:
// *sketch.SpanningSketch, *sketch.SkeletonSketch, *hybrid.Sketch (over a
// spanning or skeleton inner), *vertexconn.Sketch, *edgeconn.Sketch or
// *sparsify.Sketch. Any other type returns ErrNoDecodeRoute; wrap it with
// New and a Config instead.
func For(s graphsketch.Sketch) (*Oracle, error) {
	r, err := routeFor(s)
	if err != nil {
		return nil, err
	}
	return New(Config{Sketch: s, N: r.n, Decode: r.decode, MaxRemove: r.maxRemove})
}

// Decode decodes s once along the route For would serve it from, with the
// trace hung under parent (nil starts a fresh trace). It is for callers
// that need a single certificate, such as a coordinator decoding gathered
// shard state, without an epoch cache around it.
func Decode(s graphsketch.Sketch, parent *obs.Span) (*graph.Hypergraph, error) {
	r, err := routeFor(s)
	if err != nil {
		return nil, err
	}
	return r.decode(parent)
}
