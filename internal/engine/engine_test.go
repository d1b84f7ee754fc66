package engine_test

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"graphsketch"
	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// testStream builds the e1-style workload: a Harary graph streamed with
// Erdős–Rényi churn (inserted then deleted), as both a stream and a batch.
func testStream(n, k int, seed uint64) (stream.Stream, []graph.WeightedEdge) {
	rng := rand.New(rand.NewPCG(seed, 1))
	final := workload.MustHarary(n, k)
	churn := workload.ErdosRenyi(rng, n, 0.3)
	st := stream.WithChurn(final, churn, rng)
	batch := make([]graph.WeightedEdge, len(st))
	for i, u := range st {
		batch[i] = graph.WeightedEdge{E: u.Edge, W: int64(u.Op)}
	}
	return st, batch
}

// TestParallelSerialEquivalence checks the engine's core determinism claim:
// for every worker count, ingesting through the sharded worker pool leaves
// the sketch byte-identical to serial ingestion with the same seed.
func TestParallelSerialEquivalence(t *testing.T) {
	const n, seed = 24, 7
	st, _ := testStream(n, 3, seed)

	build := func() []graphsketch.Sharded {
		sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		vc, err := vertexconn.New(vertexconn.Params{N: n, K: 2, Subgraphs: 16, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return []graphsketch.Sharded{sp, sk, vc}
	}

	serial := build()
	for _, s := range serial {
		if err := stream.Apply(st, s); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2, 3, 5, 32} {
		parallel := build()
		for i, s := range parallel {
			eng := engine.New(s, engine.Options{Workers: workers})
			if err := eng.Consume(st, 64); err != nil {
				t.Fatalf("workers=%d sketch %d: %v", workers, i, err)
			}
			eng.Close()
			if !bytes.Equal(serial[i].Marshal(), s.Marshal()) {
				t.Errorf("workers=%d sketch %d: parallel state differs from serial", workers, i)
			}
		}
	}
}

// TestConcurrentUpdateBatch hammers one engine from many goroutines. The
// engine serializes nothing across calls, but sketch updates are exact field
// additions, so the final state must still equal serial ingestion of the
// same multiset of updates.
func TestConcurrentUpdateBatch(t *testing.T) {
	const n, seed = 20, 11
	st, batch := testStream(n, 3, seed)

	serial := sketch.NewSkeleton(seed, graph.MustDomain(n, 2), 3, sketch.SpanningConfig{})
	if err := stream.Apply(st, serial); err != nil {
		t.Fatal(err)
	}

	par := sketch.NewSkeleton(seed, graph.MustDomain(n, 2), 3, sketch.SpanningConfig{})
	eng := engine.New(par, engine.Options{Workers: 4})
	defer eng.Close()

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		lo := g * len(batch) / goroutines
		hi := (g + 1) * len(batch) / goroutines
		wg.Add(1)
		go func(chunk []graph.WeightedEdge) {
			defer wg.Done()
			for len(chunk) > 0 {
				sz := min(7, len(chunk))
				if err := eng.UpdateBatch(chunk[:sz]); err != nil {
					t.Error(err)
					return
				}
				chunk = chunk[sz:]
			}
		}(batch[lo:hi])
	}
	wg.Wait()

	if !bytes.Equal(serial.Marshal(), par.Marshal()) {
		t.Fatal("concurrent UpdateBatch state differs from serial ingestion")
	}
	got, err := par.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("decode after concurrent ingestion differs from serial decode")
	}
}

// TestEngineSingleUpdateAndErrors covers the Update shim and error paths.
func TestEngineSingleUpdateAndErrors(t *testing.T) {
	const n = 8
	sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sp, engine.Options{Workers: 3})
	defer eng.Close()

	if err := eng.Update(graph.MustEdge(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateBatch(nil); err != nil {
		t.Fatal(err)
	}
	// Out-of-range vertex: the per-edge Encode fails in every shard and the
	// engine must surface it.
	bad := []graph.WeightedEdge{{E: graph.Hyperedge{0, n + 5}, W: 1}}
	if err := eng.UpdateBatch(bad); err == nil {
		t.Fatal("expected an error for an out-of-range vertex")
	}

	// Worker count is capped at the vertex count and floored at 1.
	capped := engine.New(sp, engine.Options{Workers: 100})
	defer capped.Close()
	if w := capped.Workers(); w > n {
		t.Fatalf("workers = %d, want <= n = %d", w, n)
	}
}

// TestEngineIsDropInSink checks Consume against stream.Apply on an
// edge-connectivity sketch, including the decoded answer.
func TestEngineIsDropInSink(t *testing.T) {
	const n, seed = 16, 5
	st, _ := testStream(n, 4, seed)

	serial, err := edgeconn.New(edgeconn.Params{N: n, K: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(st, serial); err != nil {
		t.Fatal(err)
	}
	par, err := edgeconn.New(edgeconn.Params{N: n, K: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(par, engine.Options{})
	defer eng.Close()
	if err := eng.Consume(st, 0); err != nil {
		t.Fatal(err)
	}

	wantL, _, errS := serial.EdgeConnectivity()
	gotL, _, errP := par.EdgeConnectivity()
	if errS != nil || errP != nil {
		t.Fatalf("decode errors: serial %v, parallel %v", errS, errP)
	}
	if gotL != wantL {
		t.Fatalf("edge connectivity: parallel %d, serial %d", gotL, wantL)
	}
}

// TestForEach checks the fan-out helper: every index runs even after
// failures, and the returned error is the first by index, deterministically.
func TestForEach(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int64
		err := engine.ForEach(workers, 100, func(i int) error {
			ran.Add(1)
			switch i {
			case 90:
				return errA
			case 10:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errB) {
			t.Fatalf("workers=%d: got %v, want first-by-index error %v", workers, err, errB)
		}
		if ran.Load() != 100 {
			t.Fatalf("workers=%d: ran %d of 100 indices", workers, ran.Load())
		}
	}
	if err := engine.ForEach(4, 0, func(int) error { return errA }); err != nil {
		t.Fatalf("n=0: got %v, want nil", err)
	}
}
