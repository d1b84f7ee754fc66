package sketch

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/workload"
)

// streamInto applies h's edges to the sketch as unit insertions.
func streamInto(t *testing.T, s *SpanningSketch, h *graph.Hypergraph) {
	t.Helper()
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Hypergraph {
	h := graph.NewGraph(n)
	for i := 0; i < m; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		e := graph.MustEdge(u, v)
		if !h.Has(e) {
			h.MustAddEdge(e, 1)
		}
	}
	return h
}

func randomHypergraph(rng *rand.Rand, n, r, m int) *graph.Hypergraph {
	h := graph.MustHypergraph(n, r)
	for i := 0; i < m; i++ {
		k := 2 + rng.IntN(r-1)
		vs := map[int]bool{}
		for len(vs) < k {
			vs[rng.IntN(n)] = true
		}
		var e []int
		for v := range vs {
			e = append(e, v)
		}
		he := graph.MustEdge(e...)
		if !h.Has(he) {
			h.MustAddEdge(he, 1)
		}
	}
	return h
}

// sameConnectivity checks the decoded forest has exactly the components of h.
func sameConnectivity(t *testing.T, h, f *graph.Hypergraph, label string) {
	t.Helper()
	dh := graphalg.ComponentsOf(h)
	df := graphalg.ComponentsOf(f)
	n := h.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if dh.Same(u, v) != df.Same(u, v) {
				t.Fatalf("%s: connectivity differs at (%d,%d)", label, u, v)
			}
		}
	}
	// A spanning graph must also be a subgraph.
	for _, e := range f.Edges() {
		if !h.Has(e) {
			t.Fatalf("%s: decoded edge %v not in graph — fabricated edge", label, e)
		}
	}
}

func TestSpanningGraphRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 10; trial++ {
		n := 16 + rng.IntN(30)
		h := randomGraph(rng, n, 3*n)
		s := NewSpanning(uint64(trial), h.Domain(), SpanningConfig{})
		streamInto(t, s, h)
		f, err := s.SpanningGraph()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameConnectivity(t, h, f, "random graph")
		if f.EdgeCount() >= n {
			t.Fatalf("trial %d: forest has %d >= n edges", trial, f.EdgeCount())
		}
	}
}

func TestSpanningGraphHypergraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	for trial := 0; trial < 8; trial++ {
		n := 12 + rng.IntN(20)
		h := randomHypergraph(rng, n, 4, 2*n)
		s := NewSpanning(uint64(100+trial), h.Domain(), SpanningConfig{})
		streamInto(t, s, h)
		f, err := s.SpanningGraph()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameConnectivity(t, h, f, "hypergraph")
	}
}

// TestSpanningDecodeDeterministic pins that decoding one hypergraph state
// repeatedly returns the same forest. With r ≥ 3 the forest depends on the
// order components merge their sampled edges, so Peel must visit them in a
// fixed order.
func TestSpanningDecodeDeterministic(t *testing.T) {
	const n = 64
	h := workload.UniformHypergraph(rand.New(rand.NewPCG(3, 1)), n, 3, 2*n)
	s, err := NewSpanningSketch(SpanningParams{N: n, R: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, s, h)
	first, err := s.SpanningGraph()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f, err := s.SpanningGraph()
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(first) {
			t.Fatalf("decode %d returned a different forest from the same state", i+1)
		}
	}
}

func TestSpanningWithDeletions(t *testing.T) {
	// Insert a dense graph, delete down to a sparse one; the sketch must
	// reflect only the survivors.
	rng := rand.New(rand.NewPCG(3, 1))
	n := 24
	full := randomGraph(rng, n, 5*n)
	survivor := graph.NewGraph(n)
	s := NewSpanning(7, full.Domain(), SpanningConfig{})
	for i, e := range full.Edges() {
		if err := s.Update(e, 1); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			survivor.MustAddEdge(e, 1)
		}
	}
	for _, e := range full.Edges() {
		if !survivor.Has(e) {
			if err := s.Update(e, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := s.SpanningGraph()
	if err != nil {
		t.Fatal(err)
	}
	sameConnectivity(t, survivor, f, "post-deletion")
}

func TestSpanningEmptyAndSingleEdge(t *testing.T) {
	dom := graph.MustDomain(8, 2)
	s := NewSpanning(1, dom, SpanningConfig{})
	f, err := s.SpanningGraph()
	if err != nil {
		t.Fatal(err)
	}
	if f.EdgeCount() != 0 {
		t.Fatalf("empty sketch decoded %d edges", f.EdgeCount())
	}
	if err := s.Update(graph.MustEdge(2, 5), 1); err != nil {
		t.Fatal(err)
	}
	f, err = s.SpanningGraph()
	if err != nil {
		t.Fatal(err)
	}
	if f.EdgeCount() != 1 || !f.Has(graph.MustEdge(2, 5)) {
		t.Fatalf("single-edge decode wrong: %v", f.Edges())
	}
}

func TestSpanningConnectedDetection(t *testing.T) {
	// Planted two components; Connected must say false, then an edge
	// joining them flips it to true.
	n := 20
	h := graph.NewGraph(n)
	for i := 0; i < n/2-1; i++ {
		h.AddSimple(i, i+1)
	}
	for i := n / 2; i < n-1; i++ {
		h.AddSimple(i, i+1)
	}
	s := NewSpanning(5, h.Domain(), SpanningConfig{})
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	conn, err := s.Connected()
	if err != nil {
		t.Fatal(err)
	}
	if conn {
		t.Fatal("two components reported connected")
	}
	if err := s.Update(graph.MustEdge(0, n-1), 1); err != nil {
		t.Fatal(err)
	}
	conn, err = s.Connected()
	if err != nil {
		t.Fatal(err)
	}
	if !conn {
		t.Fatal("joined graph reported disconnected")
	}
}

func TestSpanningLinearityAcrossSketches(t *testing.T) {
	// Two halves of a stream sketched separately (same seed) then merged
	// must decode like a single sketch — the distributed-merge property.
	rng := rand.New(rand.NewPCG(4, 1))
	n := 20
	h := randomGraph(rng, n, 3*n)
	a := NewSpanning(9, h.Domain(), SpanningConfig{})
	b := NewSpanning(9, h.Domain(), SpanningConfig{})
	for i, e := range h.Edges() {
		target := a
		if i%2 == 1 {
			target = b
		}
		if err := target.Update(e, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddScaled(b, 1); err != nil {
		t.Fatal(err)
	}
	f, err := a.SpanningGraph()
	if err != nil {
		t.Fatal(err)
	}
	sameConnectivity(t, h, f, "merged halves")
}

func TestSpanningSubtractGraph(t *testing.T) {
	// Sketch G, subtract a known subgraph F, decode spanning graph of G−F.
	rng := rand.New(rand.NewPCG(5, 1))
	n := 18
	h := randomGraph(rng, n, 4*n)
	s := NewSpanning(11, h.Domain(), SpanningConfig{})
	streamInto(t, s, h)

	// Remove a third of the edges via linear subtraction.
	removed := graph.NewGraph(n)
	for i, e := range h.Edges() {
		if i%3 == 0 {
			removed.MustAddEdge(e, 1)
		}
	}
	if err := s.UpdateGraph(removed, -1); err != nil {
		t.Fatal(err)
	}
	rest := h.Clone()
	if err := rest.Subtract(removed); err != nil {
		t.Fatal(err)
	}
	f, err := s.SpanningGraph()
	if err != nil {
		t.Fatal(err)
	}
	sameConnectivity(t, rest, f, "after subtraction")
}

// skeletonProperty verifies |δ_H'(S)| >= min(|δ_H(S)|, k) on all cuts of a
// small graph (exhaustive) or sampled cuts of a larger one.
func skeletonProperty(t *testing.T, h, skel *graph.Hypergraph, k int64, rng *rand.Rand) {
	t.Helper()
	n := h.N()
	check := func(inS func(int) bool) {
		orig := h.CutWeight(inS)
		got := skel.CutWeight(inS)
		want := orig
		if want > k {
			want = k
		}
		if got < want {
			t.Fatalf("skeleton cut %d < min(original %d, k=%d)", got, orig, k)
		}
	}
	if n <= 14 {
		for mask := 1; mask < 1<<uint(n-1); mask++ {
			check(func(v int) bool { return mask&(1<<uint(v)) != 0 })
		}
	} else {
		for trial := 0; trial < 2000; trial++ {
			mask := rng.Uint64()
			check(func(v int) bool { return mask&(1<<uint(v%64)) != 0 })
		}
	}
}

func TestSkeletonCutPreservation(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	for trial := 0; trial < 5; trial++ {
		n := 12
		h := randomGraph(rng, n, 4*n)
		k := 3
		sk := NewSkeleton(uint64(trial), h.Domain(), k, SpanningConfig{})
		if err := sk.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		skel, err := sk.Skeleton()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Skeleton is a subgraph.
		for _, e := range skel.Edges() {
			if !h.Has(e) {
				t.Fatalf("fabricated skeleton edge %v", e)
			}
		}
		skeletonProperty(t, h, skel, int64(k), rng)
		if skel.EdgeCount() > k*(n-1) {
			t.Fatalf("skeleton too big: %d > k(n-1)", skel.EdgeCount())
		}
	}
}

func TestSkeletonHypergraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	n := 12
	h := randomHypergraph(rng, n, 3, 3*n)
	k := 2
	sk := NewSkeleton(3, h.Domain(), k, SpanningConfig{})
	if err := sk.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	skel, err := sk.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	skeletonProperty(t, h, skel, int64(k), rng)
}

func TestSkeletonLemma12(t *testing.T) {
	// Lemma 12: for a k-skeleton H of G, λ_e(H) <= k-1 iff λ_e(G) <= k-1
	// for edges of H.
	rng := rand.New(rand.NewPCG(8, 1))
	n := 12
	h := randomGraph(rng, n, 3*n)
	k := 3
	sk := NewSkeleton(5, h.Domain(), k, SpanningConfig{})
	if err := sk.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	skel, err := sk.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range skel.Edges() {
		inH := graphalg.LambdaE(skel, e, int64(k)) <= int64(k-1)
		inG := graphalg.LambdaE(h, e, int64(k)) <= int64(k-1)
		if inH != inG {
			t.Fatalf("Lemma 12 violated for %v: skeleton %v, graph %v", e, inH, inG)
		}
	}
}

func TestSkeletonWithDeletionChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	n := 12
	final := randomGraph(rng, n, 3*n)
	churn := randomGraph(rng, n, 3*n)
	sk := NewSkeleton(13, final.Domain(), 2, SpanningConfig{})
	// Insert churn, then final, then delete churn (skipping overlaps).
	for _, e := range churn.Edges() {
		if !final.Has(e) {
			if err := sk.Update(e, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sk.UpdateGraph(final, 1); err != nil {
		t.Fatal(err)
	}
	for _, e := range churn.Edges() {
		if !final.Has(e) {
			if err := sk.Update(e, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	skel, err := sk.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range skel.Edges() {
		if !final.Has(e) {
			t.Fatalf("skeleton contains deleted edge %v", e)
		}
	}
	skeletonProperty(t, final, skel, 2, rng)
}

func TestVertexWordsAccounting(t *testing.T) {
	dom := graph.MustDomain(16, 2)
	s := NewSpanning(1, dom, SpanningConfig{})
	if err := s.Update(graph.MustEdge(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if s.VertexWords(0) == 0 || s.VertexWords(1) == 0 {
		t.Fatal("touched vertices should have nonzero share")
	}
	if s.VertexWords(5) != 0 {
		t.Fatal("untouched vertex has nonzero share — sketch is not vertex-based")
	}
	total := 0
	for v := 0; v < 16; v++ {
		total += s.VertexWords(v)
	}
	// Words additionally counts one interned copy of each round's shared
	// randomness; the vertex shares are pure cell state (the messages of
	// the communication model, which never carry the public coins).
	shared := 0
	for t2 := range s.samplers {
		shared += s.samplers[t2][0].SharedWords()
	}
	if total+shared != s.Words() {
		t.Fatalf("vertex shares %d + shared %d != total %d", total, shared, s.Words())
	}
}

func BenchmarkSpanningUpdate(b *testing.B) {
	dom := graph.MustDomain(1024, 2)
	s := NewSpanning(1, dom, SpanningConfig{})
	rng := rand.New(rand.NewPCG(1, 2))
	edges := make([]graph.Hyperedge, 1024)
	for i := range edges {
		u, v := rng.IntN(1024), rng.IntN(1024)
		for u == v {
			v = rng.IntN(1024)
		}
		edges[i] = graph.MustEdge(u, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Update(edges[i%len(edges)], 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpanningDecode(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	h := randomGraph(rng, 64, 256)
	s := NewSpanning(1, h.Domain(), SpanningConfig{})
	if err := s.UpdateGraph(h, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SpanningGraph(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSkeletonAccessorsAndLinearity(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 1))
	h := randomGraph(rng, 12, 30)
	const seed = 77
	a := NewSkeleton(seed, h.Domain(), 2, SpanningConfig{})
	b := NewSkeleton(seed, h.Domain(), 2, SpanningConfig{})
	if a.K() != 2 || a.Domain() != h.Domain() {
		t.Fatal("accessors wrong")
	}
	// Split the stream over two sketches and merge.
	for i, e := range h.Edges() {
		target := a
		if i%2 == 1 {
			target = b
		}
		if err := target.Update(e, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddScaled(b, 1); err != nil {
		t.Fatal(err)
	}
	// Compare against a clone of a single-stream sketch.
	direct := NewSkeleton(seed, h.Domain(), 2, SpanningConfig{})
	if err := direct.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	cp := direct.Clone()
	sa, errA := a.Skeleton()
	sc, errC := cp.Skeleton()
	if errA != nil || errC != nil {
		t.Fatal(errA, errC)
	}
	if !sa.Equal(sc) {
		t.Fatal("merged skeleton differs from direct clone")
	}
	if direct.Words() == 0 || direct.VertexWords(h.Edges()[0][0]) == 0 {
		t.Fatal("words accounting empty")
	}
	// Incompatible merge rejected.
	other := NewSkeleton(seed+1, h.Domain(), 2, SpanningConfig{})
	if err := a.AddScaled(other, 1); err == nil {
		t.Fatal("different seeds accepted")
	}
}

func TestSkeletonVertexShareExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	h := randomGraph(rng, 10, 20)
	const seed = 88
	direct := NewSkeleton(seed, h.Domain(), 2, SpanningConfig{})
	if err := direct.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	ref := NewSkeleton(seed, h.Domain(), 2, SpanningConfig{})
	for v := 0; v < 10; v++ {
		p := NewSkeleton(seed, h.Domain(), 2, SpanningConfig{})
		for _, e := range h.Edges() {
			if e.Contains(v) {
				if err := p.Update(e, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ref.AddVertexShare(v, p.VertexShare(v)); err != nil {
			t.Fatal(err)
		}
	}
	sa, errA := direct.Skeleton()
	sb, errB := ref.Skeleton()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !sa.Equal(sb) {
		t.Fatal("share-merged skeleton differs")
	}
	// Malformed share rejected.
	if err := ref.AddVertexShare(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("malformed share accepted")
	}
}

func TestSpanningAddVertexShareRejectsTrailing(t *testing.T) {
	dom := graph.MustDomain(6, 2)
	a := NewSpanning(1, dom, SpanningConfig{})
	if err := a.Update(graph.MustEdge(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	share := a.VertexShare(0)
	b := NewSpanning(1, dom, SpanningConfig{})
	if err := b.AddVertexShare(0, append(share, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
