// Package sketch implements the paper's linear graph sketches: the
// AGM-style spanning-graph sketch, generalized to hypergraphs exactly as in
// Section 4.1 (Theorem 13), and the k-skeleton sketch built from k
// independent spanning sketches (Theorem 14).
//
// A sketch is vertex-based: every vertex v owns, for each Boruvka round, an
// L0 sampler of its incidence vector a_v, where for a hyperedge e
//
//	a_v[e] = |e|−1  if v = min(e),   −1  if v ∈ e \ {min(e)},   0 otherwise.
//
// The only subsets of {|e|−1, −1, …, −1} summing to zero are the empty set
// and the whole set, so for any vertex set S the vector Σ_{v∈S} a_v is
// supported exactly on δ(S) — summing the samplers of a supernode's members
// therefore yields an L0 sampler of the supernode's cut, which is what the
// Boruvka decoding exploits. For ordinary graphs (r = 2) the coefficients
// reduce to the familiar +1/−1 orientation of AGM.
package sketch

import (
	"math/bits"

	"graphsketch"
	"graphsketch/internal/field"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/l0"
	"graphsketch/internal/obs"
)

// SpanningConfig controls a spanning-graph sketch.
type SpanningConfig struct {
	// Rounds is the number of independent sampler copies, one per Boruvka
	// round. Fresh randomness per round is what makes the adaptive
	// merging sound (Section 4.2 discusses exactly why reuse is not).
	// Default: ⌈log2 n⌉ + 2.
	Rounds int
	// Sampler configures the per-vertex L0 samplers.
	Sampler l0.Config
}

func (c SpanningConfig) withDefaults(n int) SpanningConfig {
	if c.Rounds <= 0 {
		c.Rounds = bits.Len(uint(n-1)) + 2
	}
	return c
}

// SpanningSketch is a linear, vertex-based sketch of a hypergraph from which
// a spanning graph (a maximal-connectivity certificate: one forest of
// hyperedges) can be decoded with high probability.
type SpanningSketch struct {
	dom  graph.Domain
	cfg  SpanningConfig
	seed uint64
	// samplers[t][v] is vertex v's sampler for round t. All samplers in a
	// round share one seed (the same linear projection applied to every
	// incidence vector); rounds are independent.
	samplers [][]*l0.Sampler
}

// SpanningParams configures a spanning-graph sketch, following the
// repository-wide Params-struct constructor convention.
type SpanningParams struct {
	// N is the vertex count; R the maximum hyperedge cardinality (2 for
	// ordinary graphs; defaults to 2).
	N, R int
	// Rounds and Sampler configure the sketch as in SpanningConfig.
	Rounds  int
	Sampler l0.Config
	// Seed derives all randomness.
	Seed uint64
}

func (p SpanningParams) withDefaults() SpanningParams {
	if p.R < 2 {
		p.R = 2
	}
	return p
}

// NewSpanningSketch returns an empty spanning-graph sketch for hypergraphs
// on p.N vertices with cardinality at most p.R. Sketches with equal Params
// are compatible for Merge and AddScaled.
func NewSpanningSketch(p SpanningParams) (*SpanningSketch, error) {
	p = p.withDefaults()
	dom, err := graph.NewDomain(p.N, p.R)
	if err != nil {
		return nil, err
	}
	return NewSpanning(p.Seed, dom, SpanningConfig{Rounds: p.Rounds, Sampler: p.Sampler}), nil
}

// NewSpanning returns an empty spanning-graph sketch for hypergraphs over
// the given domain. Sketches with equal seeds, domains and configs are
// compatible for AddScaled.
//
// Deprecated: prefer NewSpanningSketch with SpanningParams; this positional
// variant is kept for callers that already hold a validated Domain.
func NewSpanning(seed uint64, dom graph.Domain, cfg SpanningConfig) *SpanningSketch {
	cfg = cfg.withDefaults(dom.N())
	ss := hashutil.NewSeedStream(seed)
	s := &SpanningSketch{dom: dom, cfg: cfg, seed: seed}
	s.samplers = make([][]*l0.Sampler, cfg.Rounds)
	for t := 0; t < cfg.Rounds; t++ {
		roundSeed := ss.At(uint64(t))
		row := make([]*l0.Sampler, dom.N())
		for v := range row {
			row[v] = l0.New(roundSeed, dom.Size(), cfg.Sampler)
		}
		s.samplers[t] = row
	}
	return s
}

// Update applies the insertion (delta = +1) or deletion (delta = −1) of
// hyperedge e, or a weighted variant. The update touches only the samplers
// of e's endpoints — the sketch is vertex-based.
func (s *SpanningSketch) Update(e graph.Hyperedge, delta int64) error {
	return s.UpdateEdgeRange(e, delta, 0, s.dom.N())
}

// UpdateEdgeRange applies the update restricted to endpoints v with
// lo ≤ v < hi; endpoints outside the range are untouched. Applying the same
// update over a partition of [0, n) yields exactly the state of a full
// Update — this per-vertex decomposability is what lets the parallel engine
// shard updates across lock-free workers.
//
// The edge key is encoded once, and within each round the subsampling level
// and fingerprint power are hashed once and fanned out to every in-range
// endpoint (all samplers in a round share a seed), so the batched path also
// amortizes hashing relative to per-endpoint Update calls.
func (s *SpanningSketch) UpdateEdgeRange(e graph.Hyperedge, delta int64, lo, hi int) error {
	key, err := s.dom.Encode(e)
	if err != nil {
		return err
	}
	head := int64(len(e) - 1)
	for t := range s.samplers {
		row := s.samplers[t]
		hashed := false
		var top int
		var zPow field.Elem
		for i, v := range e {
			if v < lo || v >= hi {
				continue
			}
			coeff := int64(-1)
			if i == 0 { // e is canonical: e[0] = min(e)
				coeff = head
			}
			if !hashed {
				top, zPow = row[v].Hash(key)
				hashed = true
			}
			row[v].UpdateHashed(key, delta*coeff, top, zPow)
		}
	}
	return nil
}

// UpdateBatch applies a slice of weighted updates in order; equivalent to
// calling Update per element but with hashing amortized per edge.
func (s *SpanningSketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return s.UpdateBatchRange(batch, 0, s.dom.N())
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi);
// see UpdateEdgeRange for the sharding contract.
func (s *SpanningSketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	for _, we := range batch {
		if err := s.UpdateEdgeRange(we.E, we.W, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// UpdateGraph applies every weighted edge of h, scaled by scale. With
// scale = −1 this is the linear subtraction the skeleton peeling uses.
func (s *SpanningSketch) UpdateGraph(h *graph.Hypergraph, scale int64) error {
	for _, we := range h.WeightedEdges() {
		if err := s.Update(we.E, we.W*scale); err != nil {
			return err
		}
	}
	return nil
}

// AddScaled adds scale copies of o into s (same seed/domain/config).
func (s *SpanningSketch) AddScaled(o *SpanningSketch, scale int64) error {
	switch {
	case s.seed != o.seed:
		return ErrSeedMismatch
	case s.dom != o.dom:
		return ErrDomainMismatch
	case s.cfg != o.cfg:
		return ErrConfigMismatch
	}
	for t := range s.samplers {
		for v := range s.samplers[t] {
			if err := s.samplers[t][v].AddScaled(o.samplers[t][v], scale); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (s *SpanningSketch) Clone() *SpanningSketch {
	cp := &SpanningSketch{dom: s.dom, cfg: s.cfg, seed: s.seed}
	cp.samplers = make([][]*l0.Sampler, len(s.samplers))
	for t := range s.samplers {
		row := make([]*l0.Sampler, len(s.samplers[t]))
		for v := range row {
			row[v] = s.samplers[t][v].Clone()
		}
		cp.samplers[t] = row
	}
	return cp
}

// SpanningGraph decodes a spanning graph of the sketched hypergraph: a
// subgraph with the same connected components, at most n−1 hyperedges. The
// decoding is Peel, the Boruvka process of Ahn et al.: in each round, every
// current component samples one hyperedge leaving it (by summing its
// members' samplers for that round) and components merge along the sampled
// edges.
//
// It returns ErrDecodeFailed if the rounds are exhausted while some
// component both fails to produce a sample and cannot be certified as
// fully merged; every returned edge is fingerprint-certified real.
func (s *SpanningSketch) SpanningGraph() (*graph.Hypergraph, error) {
	return s.SpanningGraphTraced(nil)
}

// SpanningGraphTraced is SpanningGraph with the decode span hung under
// parent, so callers that fan decodes out (skeleton layers, engine
// workers) produce one causal trace tree. A nil parent starts a fresh
// trace (exactly SpanningGraph).
func (s *SpanningSketch) SpanningGraphTraced(parent *obs.Span) (*graph.Hypergraph, error) {
	sp := parent.Child("sketch.spanning_graph", skm.spanSpan)
	defer sp.End()
	n := s.dom.N()
	forest, rounds, err := Peel(sp, s.dom, s.cfg.Rounds, s.cut)
	if err != nil {
		skm.failures.Inc()
		obs.RecordEvent("sketch.decode_failure",
			"structure", "spanning", "n", n, "rounds", s.cfg.Rounds)
		return nil, err
	}
	skm.peelRounds.Observe(float64(rounds))
	sp.SetAttrs("n", n, "rounds", rounds)
	return forest, nil
}

// cut is the pure sketch's Peel cut query: it sums the members' round-t
// samplers into a sampler of the component's cut vector and draws from it.
func (s *SpanningSketch) cut(t int, members []int) (key uint64, ok, empty bool) {
	sum := s.samplers[t][members[0]].Clone()
	for _, v := range members[1:] {
		// Same round => same seed: AddScaled cannot fail.
		if err := sum.AddScaled(s.samplers[t][v], 1); err != nil {
			panic(err)
		}
	}
	if key, _, ok = sum.Sample(); ok {
		return key, true, false
	}
	return 0, false, sum.IsZero()
}

// Connected decodes the sketch and reports whether the hypergraph is
// connected over all n vertices. This is the paper's "first dynamic graph
// algorithm for hypergraph connectivity" (Section 4.1).
func (s *SpanningSketch) Connected() (bool, error) {
	f, err := s.SpanningGraph()
	if err != nil {
		return false, err
	}
	return graphalg.Connected(f), nil
}

// Components decodes the sketch and returns the connected components.
func (s *SpanningSketch) Components() (*graphalg.DSU, error) {
	f, err := s.SpanningGraph()
	if err != nil {
		return nil, err
	}
	return graphalg.ComponentsOf(f), nil
}

// Domain returns the sketch's hyperedge key domain.
func (s *SpanningSketch) Domain() graph.Domain { return s.dom }

// Rounds returns the number of Boruvka rounds (independent sampler copies).
func (s *SpanningSketch) Rounds() int { return s.cfg.Rounds }

// SamplerAt returns vertex v's round-t L0 sampler. The adaptive hybrid
// store (internal/hybrid) sums spilled members' samplers through this during
// its mixed exact/sketch Boruvka decode. The sampler is the sketch's live
// state: callers must Clone before mutating.
func (s *SpanningSketch) SamplerAt(t, v int) *l0.Sampler { return s.samplers[t][v] }

// Config returns the (defaulted) configuration.
func (s *SpanningSketch) Config() SpanningConfig { return s.cfg }

// Seed returns the master seed.
func (s *SpanningSketch) Seed() uint64 { return s.seed }

// Words returns the total memory footprint in 64-bit words: every vertex's
// cells plus, once per round, the interned seed-derived randomness the
// round's n samplers share. Before interning each sampler stored that
// randomness privately; counting it once keeps the space tables aligned
// with what the process actually holds.
func (s *SpanningSketch) Words() int {
	w := 0
	for t := range s.samplers {
		row := s.samplers[t]
		w += row[0].SharedWords()
		for v := range row {
			w += row[v].StateWords()
		}
	}
	return w
}

// SharedWords returns the size in 64-bit words of the interned seed-derived
// randomness the sketch references: one copy per round, shared by the
// round's n samplers. Words() == SharedWords() + Σ_v VertexWords(v).
func (s *SpanningSketch) SharedWords() int {
	w := 0
	for t := range s.samplers {
		w += s.samplers[t][0].SharedWords()
	}
	return w
}

// VertexWords returns the size of a single vertex's share of the sketch —
// the message size in the simultaneous communication model. Messages carry
// only cell state; the shared randomness is the model's public coin and is
// never transmitted.
func (s *SpanningSketch) VertexWords(v int) int {
	w := 0
	for t := range s.samplers {
		w += s.samplers[t][v].StateWords()
	}
	return w
}

// NumVertices returns n, the vertex space the sketch shards over.
func (s *SpanningSketch) NumVertices() int { return s.dom.N() }

// Merge adds another spanning sketch with identical seed, domain, and
// config (graphsketch.Mergeable).
func (s *SpanningSketch) Merge(o graphsketch.Sketch) error {
	so, ok := o.(*SpanningSketch)
	if !ok {
		return graphsketch.ErrMergeMismatch
	}
	return s.AddScaled(so, 1)
}

var _ graphsketch.Sharded = (*SpanningSketch)(nil)
