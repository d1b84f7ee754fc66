// Package edgeconn derives edge-connectivity answers from the paper's
// k-skeleton sketches (Theorem 14). For a k-skeleton H' of G,
// |δ_H'(S)| ≥ min(|δ_G(S)|, k) for every cut while H' ⊆ G, so
//
//	λ(H') = λ(G)   whenever λ(G) < k,   and   λ(H') ≥ k otherwise,
//
// which makes a single skeleton sketch a one-pass dynamic-stream structure
// for: testing k-edge-connectivity, computing the exact global minimum cut
// below k (with a witness side), and answering capped s–t cut queries.
// Applied to hypergraphs this is the edge-connectivity counterpart of the
// paper's Theorem 13 ("the first dynamic graph algorithm for hypergraph
// connectivity"), and the baseline the vertex-connectivity results of
// Section 3 are contrasted against: edge connectivity upper-bounds vertex
// connectivity but can be arbitrarily larger (see workload.SharedCliques).
package edgeconn

import (
	"fmt"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// Sketch answers edge-connectivity questions about a dynamic hypergraph
// stream, with all cut values capped at its parameter k.
type Sketch struct {
	p        Params // defaulted construction parameters (wire identity)
	k        int
	skeleton *sketch.SkeletonSketch
	decoded  *graph.Hypergraph // cached skeleton; nil when stale
}

// Params configures an edge-connectivity sketch.
type Params struct {
	// N is the vertex count; R the maximum hyperedge cardinality (2 for
	// ordinary graphs; defaults to 2).
	N, R int
	// K caps all cut values: values in [0, K) are resolved exactly,
	// larger ones report "≥ K".
	K int
	// Spanning configures the underlying spanning sketches.
	Spanning sketch.SpanningConfig
	// Seed derives all randomness.
	Seed uint64
}

func (p Params) withDefaults() (Params, error) {
	if p.R < 2 {
		p.R = 2
	}
	if p.K < 1 {
		return p, fmt.Errorf("edgeconn: need K >= 1, got %d", p.K)
	}
	return p, nil
}

// New returns a sketch able to resolve edge-connectivity values in [0, K)
// exactly and detect "≥ K". Size O(K·n·polylog n) words.
func New(p Params) (*Sketch, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	dom, err := graph.NewDomain(p.N, p.R)
	if err != nil {
		return nil, err
	}
	return &Sketch{p: p, k: p.K, skeleton: sketch.NewSkeleton(p.Seed, dom, p.K, p.Spanning)}, nil
}

// Update applies a hyperedge insertion (+1) or deletion (−1).
func (s *Sketch) Update(e graph.Hyperedge, delta int64) error {
	s.decoded = nil
	return s.skeleton.Update(e, delta)
}

// UpdateGraph applies every edge of h scaled by scale.
func (s *Sketch) UpdateGraph(h *graph.Hypergraph, scale int64) error {
	s.decoded = nil
	return s.skeleton.UpdateGraph(h, scale)
}

// UpdateBatch applies a slice of weighted updates in order.
func (s *Sketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return s.UpdateBatchRange(batch, 0, s.skeleton.NumVertices())
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi);
// see graphsketch.Sharded. The decoded-skeleton cache is invalidated by the
// shard containing vertex 0 only, per the Sharded contract.
func (s *Sketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	if lo == 0 {
		s.decoded = nil
	}
	return s.skeleton.UpdateBatchRange(batch, lo, hi)
}

// Skeleton decodes (and caches) the k-skeleton by Theorem 14's sequential
// layer peel.
func (s *Sketch) Skeleton() (*graph.Hypergraph, error) {
	return s.SkeletonTraced(nil)
}

// SkeletonTraced is Skeleton with the decode trace hung under parent (nil
// starts a fresh trace); a cache hit opens no span.
func (s *Sketch) SkeletonTraced(parent *obs.Span) (*graph.Hypergraph, error) {
	if s.decoded == nil {
		sp := parent.Child("edgeconn.skeleton", em.skelSpan)
		defer sp.End("k", s.skeleton.K())
		skel, err := s.skeleton.SkeletonTraced(sp)
		if err != nil {
			return nil, err
		}
		s.decoded = skel
	}
	return s.decoded, nil
}

// EdgeConnectivity returns min(λ(G), k) together with a witness side when
// the value is below k (the side realizes a minimum cut of G; when the
// returned value equals k the side is nil and λ(G) ≥ k).
func (s *Sketch) EdgeConnectivity() (int64, []int, error) {
	skel, err := s.Skeleton()
	if err != nil {
		return 0, nil, err
	}
	lambda, side, err := graphalg.GlobalMinCutAll(skel)
	if err != nil {
		return 0, nil, err
	}
	if lambda >= int64(s.k) {
		return int64(s.k), nil, nil
	}
	return lambda, side, nil
}

// IsKEdgeConnected reports whether λ(G) ≥ k. The answer is exact (up to the
// sketch's decode failure probability): a cut of G below k survives into the
// skeleton with its exact weight, and the skeleton is a subgraph so it never
// exaggerates connectivity.
func (s *Sketch) IsKEdgeConnected() (bool, error) {
	lambda, _, err := s.EdgeConnectivity()
	if err != nil {
		return false, err
	}
	return lambda >= int64(s.k), nil
}

// STCut returns min(λ(u,v), k): the minimum weight of hyperedges separating
// u from v, capped at k. Cuts below k are preserved exactly by the skeleton.
func (s *Sketch) STCut(u, v int) (int64, error) {
	skel, err := s.Skeleton()
	if err != nil {
		return 0, err
	}
	return graphalg.STEdgeCut(skel, u, v, int64(s.k)), nil
}

// Connected reports whether the sketched hypergraph is connected (the k = 1
// question; any k-skeleton contains a spanning graph).
func (s *Sketch) Connected() (bool, error) {
	skel, err := s.Skeleton()
	if err != nil {
		return false, err
	}
	return graphalg.Connected(skel), nil
}

// K returns the cap parameter.
func (s *Sketch) K() int { return s.k }

// Words returns the memory footprint in 64-bit words.
func (s *Sketch) Words() int { return s.skeleton.Words() }

// SharedWords returns the interned-randomness portion of Words;
// Words() == SharedWords() + Σ_v VertexWords(v).
func (s *Sketch) SharedWords() int { return s.skeleton.SharedWords() }

// VertexWords returns vertex v's share (per-player message size).
func (s *Sketch) VertexWords(v int) int { return s.skeleton.VertexWords(v) }

// VertexShare serializes vertex v's share for the simultaneous
// communication model.
func (s *Sketch) VertexShare(v int) []byte { return s.skeleton.VertexShare(v) }

// AddVertexShare merges a serialized vertex share (same seed/shape).
func (s *Sketch) AddVertexShare(v int, data []byte) error {
	s.decoded = nil
	return s.skeleton.AddVertexShare(v, data)
}

// NumVertices returns n, the vertex space the sketch shards over.
func (s *Sketch) NumVertices() int { return s.skeleton.NumVertices() }

// Merge adds another edge-connectivity sketch with identical parameters
// (graphsketch.Mergeable).
func (s *Sketch) Merge(o graphsketch.Sketch) error {
	so, ok := o.(*Sketch)
	if !ok {
		return graphsketch.ErrMergeMismatch
	}
	s.decoded = nil
	return s.skeleton.AddScaled(so.skeleton, 1)
}

// Marshal serializes the sketch contents for checkpointing; parameters are
// the structure's identity and are not serialized.
func (s *Sketch) Marshal() []byte { return s.skeleton.State() }

// Unmarshal merges serialized contents into the sketch (linearly).
func (s *Sketch) Unmarshal(data []byte) error {
	s.decoded = nil
	return s.skeleton.AddState(data)
}

var _ graphsketch.Sharded = (*Sketch)(nil)
