package sketch

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/l0"
	"graphsketch/internal/workload"
)

// referenceCut is the materialised cut query the lazy SampleSum cut
// replaced: clone the first member's round-t sampler, add the rest, draw.
func referenceCut(s *SpanningSketch) func(t int, members []int) (uint64, bool, bool) {
	return func(t int, members []int) (uint64, bool, bool) {
		sum := s.samplers[t][members[0]].Clone()
		for _, v := range members[1:] {
			if err := sum.AddScaled(s.samplers[t][v], 1); err != nil {
				panic(err)
			}
		}
		if key, _, ok := sum.Sample(); ok {
			return key, true, false
		}
		return 0, false, sum.IsZero()
	}
}

// TestSpanningCutMatchesReference decodes churned graphs and hypergraphs
// with the production cut and with the materialised reference cut: the
// forests must be equal edge for edge and the errors must agree, including
// under-provisioned Rounds where some decodes fail.
func TestSpanningCutMatchesReference(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewPCG(15, 3))
	failures, successes := 0, 0
	for _, r := range []int{2, 3} {
		for _, rounds := range []int{1, 2, 0} { // 0: the default ⌈log2 n⌉+2
			for trial := 0; trial < 6; trial++ {
				name := fmt.Sprintf("r=%d/rounds=%d/trial=%d", r, rounds, trial)
				s, err := NewSpanningSketch(SpanningParams{N: n, R: r, Rounds: rounds, Seed: rng.Uint64()})
				if err != nil {
					t.Fatal(err)
				}
				// Insert a dense hypergraph, then delete all but a sparse
				// survivor set, so cuts hold cancelled coordinates.
				full := workload.UniformHypergraph(rng, n, r, (2+trial)*n)
				for i, e := range full.Edges() {
					if err := s.Update(e, 1); err != nil {
						t.Fatal(err)
					}
					if i%(2+trial%3) != 0 {
						if err := s.Update(e, -1); err != nil {
							t.Fatal(err)
						}
					}
				}
				want, _, wantErr := Peel(nil, s.dom, s.cfg.Rounds, referenceCut(s))
				got, gotErr := s.SpanningGraph()
				if (gotErr == nil) != (wantErr == nil) || !errors.Is(gotErr, wantErr) {
					t.Fatalf("%s: SpanningGraph error %v, reference %v", name, gotErr, wantErr)
				}
				if wantErr != nil {
					failures++
					continue
				}
				successes++
				if !got.Equal(want) {
					t.Fatalf("%s: forest differs from the reference cut's forest", name)
				}
			}
		}
	}
	if failures == 0 || successes == 0 {
		t.Fatalf("want both outcomes covered; got %d failed and %d successful decodes", failures, successes)
	}
}

// Each decode owns its cut scratch, so concurrent decodes of one sketch
// (the oracle and vertexconn fan decodes out) must agree with a serial one.
func TestSpanningDecodeConcurrent(t *testing.T) {
	s := spanningDecodeFixture(t)
	want, err := s.SpanningGraph()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := s.SpanningGraph()
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want) {
					t.Error("concurrent decode returned a different forest")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// spanningDecodeFixture is BenchmarkSpanningDecode's sketch: 256 random
// edges on 64 vertices.
func spanningDecodeFixture(tb testing.TB) *SpanningSketch {
	rng := rand.New(rand.NewPCG(2, 2))
	h := randomGraph(rng, 64, 256)
	s := NewSpanning(1, h.Domain(), SpanningConfig{})
	if err := s.UpdateGraph(h, 1); err != nil {
		tb.Fatal(err)
	}
	return s
}

// skeletonDecodeFixture is BenchmarkSkeletonDecode's sketch: a 3-skeleton
// sketch of spanningDecodeFixture's graph.
func skeletonDecodeFixture(tb testing.TB) *SkeletonSketch {
	rng := rand.New(rand.NewPCG(2, 2))
	h := randomGraph(rng, 64, 256)
	s := NewSkeleton(1, h.Domain(), 3, SpanningConfig{})
	if err := s.UpdateGraph(h, 1); err != nil {
		tb.Fatal(err)
	}
	return s
}

// The Borůvka cut sums samplers into one per-decode scratch instead of
// cloning per component, so a decode's garbage is the peeler's bookkeeping
// and the forest. The materialising cut cost 1,740 allocations here; the
// bound guards against reintroducing a per-component copy.
func TestSpanningDecodeBoundedAllocs(t *testing.T) {
	s := spanningDecodeFixture(t)
	var forest *graph.Hypergraph
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if forest, err = s.SpanningGraph(); err != nil {
			t.Fatal(err)
		}
	})
	if forest.EdgeCount() == 0 {
		t.Fatal("empty forest")
	}
	if allocs > 600 {
		t.Fatalf("SpanningGraph allocates %.0f objects per decode; want <= 600", allocs)
	}
}

// cloneSpanning deep-copies a spanning sketch sampler by sampler.
func cloneSpanning(s *SpanningSketch) *SpanningSketch {
	cp := &SpanningSketch{dom: s.dom, cfg: s.cfg, seed: s.seed}
	cp.samplers = make([][]*l0.Sampler, len(s.samplers))
	for t, row := range s.samplers {
		cp.samplers[t] = make([]*l0.Sampler, len(row))
		for v, smp := range row {
			cp.samplers[t][v] = smp.Clone()
		}
	}
	return cp
}

// referenceSkeleton is the cloning peel the exact-row skeleton decode
// replaced: for each layer, clone its samplers, subtract minus and the
// earlier forests with UpdateGraph, and peel the copy with the
// materialised reference cut.
func referenceSkeleton(s *SkeletonSketch, minus *graph.Hypergraph) (*graph.Hypergraph, error) {
	skeleton := graph.MustHypergraph(s.dom.N(), s.dom.R())
	for i, layer := range s.layers {
		work := cloneSpanning(layer)
		for _, h := range []*graph.Hypergraph{minus, skeleton} {
			if h == nil {
				continue
			}
			if err := work.UpdateGraph(h, -1); err != nil {
				return nil, err
			}
		}
		f, _, err := Peel(nil, work.dom, work.cfg.Rounds, referenceCut(work))
		if err != nil {
			return nil, fmt.Errorf("sketch: skeleton layer %d: %w", i, err)
		}
		for _, e := range f.Edges() {
			skeleton.MustAddEdge(e, 1)
		}
	}
	return skeleton, nil
}

// TestSkeletonMatchesCloningPeel decodes churned multigraphs and
// hypergraphs minus a known subgraph through exact rows, and through the
// cloning reference peel: the skeletons must be equal edge for edge and
// the errors must agree, including under-provisioned Rounds where some
// layer peels fail. The subtracted subgraph carries weight-2 edges and,
// for r = 3, hyperedges that straddle components.
func TestSkeletonMatchesCloningPeel(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewPCG(16, 5))
	failures, successes := 0, 0
	for _, r := range []int{2, 3} {
		for k := 1; k <= 3; k++ {
			for _, rounds := range []int{1, 2, 0} {
				for trial := 0; trial < 3; trial++ {
					name := fmt.Sprintf("r=%d/k=%d/rounds=%d/trial=%d", r, k, rounds, trial)
					s, err := NewSkeletonSketch(SkeletonParams{N: n, R: r, K: k,
						Spanning: SpanningConfig{Rounds: rounds}, Seed: rng.Uint64()})
					if err != nil {
						t.Fatal(err)
					}
					// Insert a dense hypergraph, doubling every third edge,
					// then delete a share of it again.
					full := workload.UniformHypergraph(rng, n, r, (3+trial)*n)
					minus := graph.MustHypergraph(n, r)
					for i, e := range full.Edges() {
						w := int64(1 + btoi(i%3 == 0))
						if err := s.Update(e, w); err != nil {
							t.Fatal(err)
						}
						switch {
						case i%4 == 1:
							if err := s.Update(e, -w); err != nil {
								t.Fatal(err)
							}
						case i%5 == 0:
							minus.MustAddEdge(e, w)
						}
					}
					for _, m := range []*graph.Hypergraph{nil, minus} {
						want, wantErr := referenceSkeleton(s, m)
						rows, err := GraphRows(s.dom, m, -1)
						if err != nil {
							t.Fatal(err)
						}
						got, gotErr := s.SkeletonWith(nil, rows)
						if (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("%s: SkeletonWith error %v, reference %v", name, gotErr, wantErr)
						}
						if wantErr != nil {
							// Both name the failing layer and wrap ErrDecodeFailed.
							if !errors.Is(gotErr, ErrDecodeFailed) || gotErr.Error() != wantErr.Error() {
								t.Fatalf("%s: SkeletonWith error %q, reference %q", name, gotErr, wantErr)
							}
							failures++
							continue
						}
						successes++
						if !got.Equal(want) {
							t.Fatalf("%s: skeleton differs from the cloning peel's", name)
						}
					}
				}
			}
		}
	}
	if failures == 0 || successes == 0 {
		t.Fatalf("want both outcomes covered; got %d failed and %d successful decodes", failures, successes)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// A skeleton decode subtracts the earlier forests as exact rows instead of
// peeling a cloned layer. The cloning peel cost 23,359 allocations on this
// fixture; the bound guards against reintroducing a per-layer copy.
func TestSkeletonDecodeBoundedAllocs(t *testing.T) {
	s := skeletonDecodeFixture(t)
	var skel *graph.Hypergraph
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if skel, err = s.Skeleton(); err != nil {
			t.Fatal(err)
		}
	})
	if skel.EdgeCount() == 0 {
		t.Fatal("empty skeleton")
	}
	if allocs > 4000 {
		t.Fatalf("Skeleton allocates %.0f objects per decode; want <= 4000", allocs)
	}
}
