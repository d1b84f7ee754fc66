package sketch

import (
	"fmt"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/obs"
)

// SkeletonSketch is the paper's Theorem 14 structure: k independent
// spanning-graph sketches A¹, …, A^k from which a k-skeleton — a subgraph
// H' with |δ_H'(S)| ≥ min(|δ_H(S)|, k) for every cut — is decoded by
// peeling: F_i is a spanning graph of G − F_1 − … − F_{i−1}, obtained from
// A^i(G) − Σ_j A^i(F_j) by linearity.
//
// The independence of the k sketches is essential and deliberate: the F_j
// depend on sketch randomness, so re-using a single sketch across peels
// would make the union bound invalid (Section 4.2 of the paper; experiment
// E10 demonstrates the failure empirically).
type SkeletonSketch struct {
	dom    graph.Domain
	k      int
	seed   uint64
	layers []*SpanningSketch
}

// SkeletonParams configures a k-skeleton sketch, following the
// repository-wide Params-struct constructor convention.
type SkeletonParams struct {
	// N is the vertex count; R the maximum hyperedge cardinality
	// (defaults to 2).
	N, R int
	// K is the skeleton's connectivity parameter (number of independent
	// spanning-sketch layers); must be at least 1.
	K int
	// Spanning configures the per-layer spanning sketches.
	Spanning SpanningConfig
	// Seed derives all randomness.
	Seed uint64
}

func (p SkeletonParams) withDefaults() (SkeletonParams, error) {
	if p.R < 2 {
		p.R = 2
	}
	if p.K < 1 {
		return p, fmt.Errorf("sketch: skeleton needs K >= 1, got %d", p.K)
	}
	return p, nil
}

// NewSkeletonSketch returns an empty k-skeleton sketch for hypergraphs on
// p.N vertices with cardinality at most p.R.
func NewSkeletonSketch(p SkeletonParams) (*SkeletonSketch, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	dom, err := graph.NewDomain(p.N, p.R)
	if err != nil {
		return nil, err
	}
	return NewSkeleton(p.Seed, dom, p.K, p.Spanning), nil
}

// NewSkeleton returns an empty k-skeleton sketch. k must be at least 1.
//
// Deprecated: prefer NewSkeletonSketch with SkeletonParams; this positional
// variant is kept for callers that already hold a validated Domain.
func NewSkeleton(seed uint64, dom graph.Domain, k int, cfg SpanningConfig) *SkeletonSketch {
	if k < 1 {
		panic("sketch: skeleton needs k >= 1")
	}
	ss := hashutil.NewSeedStream(seed ^ 0x5ce1e7_0a)
	layers := make([]*SpanningSketch, k)
	for i := range layers {
		layers[i] = NewSpanning(ss.At(uint64(i)), dom, cfg)
	}
	return &SkeletonSketch{dom: dom, k: k, seed: seed, layers: layers}
}

// Update applies a weighted hyperedge update to every layer.
func (s *SkeletonSketch) Update(e graph.Hyperedge, delta int64) error {
	for _, l := range s.layers {
		if err := l.Update(e, delta); err != nil {
			return err
		}
	}
	return nil
}

// UpdateEdgeRange applies the update to every layer, restricted to
// endpoints in [lo, hi); see SpanningSketch.UpdateEdgeRange for the
// sharding contract.
func (s *SkeletonSketch) UpdateEdgeRange(e graph.Hyperedge, delta int64, lo, hi int) error {
	for _, l := range s.layers {
		if err := l.UpdateEdgeRange(e, delta, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// UpdateBatch applies a slice of weighted updates in order to every layer.
func (s *SkeletonSketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return s.UpdateBatchRange(batch, 0, s.dom.N())
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi).
func (s *SkeletonSketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	for _, we := range batch {
		if err := s.UpdateEdgeRange(we.E, we.W, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// UpdateGraph applies every weighted edge of h, scaled by scale, to every
// layer. With scale = −1 this subtracts a known subgraph — the operation
// that lets light_k reconstruction re-use one skeleton sketch across its
// (deterministically defined) peeling rounds.
func (s *SkeletonSketch) UpdateGraph(h *graph.Hypergraph, scale int64) error {
	for _, l := range s.layers {
		if err := l.UpdateGraph(h, scale); err != nil {
			return err
		}
	}
	return nil
}

// AddScaled adds scale copies of o into s.
func (s *SkeletonSketch) AddScaled(o *SkeletonSketch, scale int64) error {
	switch {
	case s.seed != o.seed:
		return ErrSeedMismatch
	case s.dom != o.dom:
		return ErrDomainMismatch
	case s.k != o.k:
		return ErrConfigMismatch
	}
	for i := range s.layers {
		if err := s.layers[i].AddScaled(o.layers[i], scale); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy.
func (s *SkeletonSketch) Clone() *SkeletonSketch {
	layers := make([]*SpanningSketch, len(s.layers))
	for i := range layers {
		layers[i] = s.layers[i].Clone()
	}
	return &SkeletonSketch{dom: s.dom, k: s.k, seed: s.seed, layers: layers}
}

// Skeleton decodes a k-skeleton of the sketched hypergraph: the union of
// forests F_1 ∪ … ∪ F_k where F_i spans G − F_1 − … − F_{i−1}. Layer i's
// sketch is peeled by linear subtraction of the already-decoded forests.
func (s *SkeletonSketch) Skeleton() (*graph.Hypergraph, error) {
	return s.SkeletonTraced(nil)
}

// SkeletonTraced is Skeleton with the decode span hung under parent; each
// layer peel gets its own child span, under which the layer's spanning
// decode (and its per-round spans) nest. A nil parent starts a fresh
// trace.
func (s *SkeletonSketch) SkeletonTraced(parent *obs.Span) (*graph.Hypergraph, error) {
	sp := parent.Child("sketch.skeleton", skm.skelSpan)
	defer sp.End("k", s.k, "n", s.dom.N())
	skeleton := graph.MustHypergraph(s.dom.N(), s.dom.R())
	var forests []*graph.Hypergraph
	for i, layer := range s.layers {
		f, err := s.peelLayer(sp, i, layer, forests)
		if err != nil {
			return nil, fmt.Errorf("sketch: skeleton layer %d: %w", i, err)
		}
		forests = append(forests, f)
		for _, e := range f.Edges() {
			// Forests are edge-disjoint by construction (each layer spans
			// the graph minus all earlier forests).
			skeleton.MustAddEdge(e, 1)
		}
	}
	return skeleton, nil
}

// peelLayer decodes layer i of the skeleton: clone, subtract the already
// decoded forests by linearity, and run the spanning decode, all under a
// per-layer child span.
func (s *SkeletonSketch) peelLayer(parent *obs.Span, i int, layer *SpanningSketch, forests []*graph.Hypergraph) (*graph.Hypergraph, error) {
	lsp := parent.Child("sketch.skeleton_layer", nil)
	defer lsp.End("layer", i)
	work := layer.Clone()
	for _, f := range forests {
		if err := work.UpdateGraph(f, -1); err != nil {
			return nil, err
		}
	}
	return work.SpanningGraphTraced(lsp)
}

// K returns the skeleton's connectivity parameter.
func (s *SkeletonSketch) K() int { return s.k }

// NumVertices returns n, the vertex space the sketch shards over.
func (s *SkeletonSketch) NumVertices() int { return s.dom.N() }

// Merge adds another skeleton sketch with identical seed, domain, and k
// (graphsketch.Mergeable).
func (s *SkeletonSketch) Merge(o graphsketch.Sketch) error {
	so, ok := o.(*SkeletonSketch)
	if !ok {
		return graphsketch.ErrMergeMismatch
	}
	return s.AddScaled(so, 1)
}

// Marshal serializes the sketch contents (graphsketch.Sketch); identical to
// State.
func (s *SkeletonSketch) Marshal() []byte { return s.State() }

// Unmarshal merges serialized contents into the sketch; identical to
// AddState.
func (s *SkeletonSketch) Unmarshal(data []byte) error { return s.AddState(data) }

var _ graphsketch.Sharded = (*SkeletonSketch)(nil)

// Domain returns the hyperedge key domain.
func (s *SkeletonSketch) Domain() graph.Domain { return s.dom }

// Words returns the total memory footprint in 64-bit words.
func (s *SkeletonSketch) Words() int {
	w := 0
	for _, l := range s.layers {
		w += l.Words()
	}
	return w
}

// SharedWords returns the interned-randomness portion of Words across all
// layers; Words() == SharedWords() + Σ_v VertexWords(v).
func (s *SkeletonSketch) SharedWords() int {
	w := 0
	for _, l := range s.layers {
		w += l.SharedWords()
	}
	return w
}

// VertexWords returns a single vertex's share of the sketch.
func (s *SkeletonSketch) VertexWords(v int) int {
	w := 0
	for _, l := range s.layers {
		w += l.VertexWords(v)
	}
	return w
}
