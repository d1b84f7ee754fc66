package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
	"graphsketch/internal/oracle"
	"graphsketch/internal/sketch"
)

func pathBatch(n int) []graph.WeightedEdge {
	var batch []graph.WeightedEdge
	for v := 1; v < n; v++ {
		batch = append(batch, graph.WeightedEdge{E: graph.MustEdge(v-1, v), W: 1})
	}
	return batch
}

// TestTraceTreeDepth is the tentpole acceptance check: a skeleton decode
// of engine-ingested state records a trace tree at least three levels deep
// (skeleton → skeleton_layer → spanning_graph → peel_round), a hybrid
// mixed decode records its rounds under its own span (hybrid.spanning_graph
// → sketch.peel_round, the one shared peel) without feeding the pure
// sketch's sketch_peel_rounds histogram, and both trees are retrievable
// from /debug/traces exactly as a scraper would see them.
func TestTraceTreeDepth(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.SetTraceSampling(1)

	const n = 16
	sk, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sk, engine.Options{Workers: 2})
	defer eng.Close()
	if err := eng.UpdateBatch(pathBatch(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.SkeletonWith(nil, nil); err != nil {
		t.Fatal(err)
	}

	// A 2-word budget holds one entry, so the path's interior spills and
	// the hybrid takes the mixed route.
	inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.New(inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := hy.UpdateBatch(pathBatch(n)); err != nil {
		t.Fatal(err)
	}
	if hy.SpilledCount() == 0 {
		t.Fatal("path spilled nothing; the mixed decode went untested")
	}
	peelRounds := obs.Default().Histogram("sketch_peel_rounds", "", nil)
	before := peelRounds.Count()
	if _, err := hy.Decode(nil); err != nil {
		t.Fatal(err)
	}
	if c := peelRounds.Count(); c != before {
		t.Errorf("hybrid decode fed sketch_peel_rounds (%d → %d observations)", before, c)
	}

	srv := httptest.NewServer(obs.Handler(obs.Default()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/traces Content-Type = %q, want application/json", ct)
	}
	var payload struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}

	// Find each decode's trace (other tests in the package may have left
	// trees in the ring) by its root span and assert its shape.
	// peelParent is the span every sketch.peel_round must hang under.
	for _, tc := range []struct {
		root       string
		minDepth   int
		want       []string
		peelParent string
	}{
		{"sketch.skeleton", 3, []string{"sketch.skeleton_layer", "sketch.spanning_graph"}, "sketch.spanning_graph"},
		{"hybrid.spanning_graph", 1, nil, "hybrid.spanning_graph"},
	} {
		t.Run(tc.root, func(t *testing.T) {
			for _, tr := range payload.Traces {
				names := make(map[string]bool, len(tr.Spans))
				byID := make(map[uint64]string, len(tr.Spans))
				for _, s := range tr.Spans {
					names[s.Name] = true
					byID[s.Span] = s.Name
				}
				if !names[tc.root] {
					continue
				}
				if tr.Depth < tc.minDepth {
					t.Fatalf("%s trace depth = %d, want >= %d (spans: %v)", tc.root, tr.Depth, tc.minDepth, names)
				}
				for _, want := range append(tc.want, "sketch.peel_round") {
					if !names[want] {
						t.Errorf("%s trace is missing a %s span", tc.root, want)
					}
				}
				for _, s := range tr.Spans {
					if s.Name == "sketch.peel_round" && byID[s.Parent] != tc.peelParent {
						t.Errorf("sketch.peel_round hangs under %q, want %s", byID[s.Parent], tc.peelParent)
					}
				}
				return
			}
			t.Fatalf("no %s trace found at /debug/traces", tc.root)
		})
	}
}

// TestEndpointScrapeRace scrapes every observability endpoint concurrently
// while an engine ingests and an oracle rebuilds, asserting stable
// content-types and well-formed bodies throughout. Run under -race (make
// obs-check does) this doubles as the no-torn-reads proof for the
// flight-recorder rings and the health registry.
func TestEndpointScrapeRace(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.SetTraceSampling(1)

	const n = 24
	ingestTarget, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	querySketch, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := querySketch.UpdateBatch(pathBatch(n)); err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.For(querySketch)
	if err != nil {
		t.Fatal(err)
	}
	obs.RegisterInspector("race_skeleton", querySketch)
	defer obs.RegisterInspector("race_skeleton", nil)

	srv := httptest.NewServer(obs.Handler(obs.Default()))
	defer srv.Close()

	wantCT := map[string]string{
		"/metrics":      "text/plain",
		"/debug/vars":   "application/json",
		"/debug/traces": "application/json",
		"/debug/events": "application/json",
		"/debug/health": "application/json",
		"/healthz":      "",
	}

	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, 3+len(wantCT))

	// Writer 1: engine ingesting batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng := engine.New(ingestTarget, engine.Options{Workers: 2})
		defer eng.Close()
		batch := pathBatch(n)
		for i := 0; i < rounds; i++ {
			if err := eng.UpdateBatch(batch); err != nil {
				errc <- err
				return
			}
		}
	}()

	// Writer 2: oracle invalidate + rebuild cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			orc.Invalidate()
			if _, err := orc.Connected(0, n-1); err != nil {
				errc <- err
				return
			}
		}
	}()

	// Scrapers: one goroutine per endpoint, hammering in a loop.
	for path, ct := range wantCT {
		wg.Add(1)
		go func(path, ct string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if ct != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), ct) {
					t.Errorf("%s: Content-Type %q, want prefix %q", path, resp.Header.Get("Content-Type"), ct)
					return
				}
				if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") && !json.Valid(body) {
					t.Errorf("%s: scraped body is not valid JSON (torn read?)", path)
					return
				}
			}
		}(path, ct)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
