package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/stream"
)

// streamBytes renders the first batches of a generator's stream.
func streamBytes(t *testing.T, g *generator, batches, size int) ([]byte, stream.Stream) {
	t.Helper()
	var buf bytes.Buffer
	var st stream.Stream
	var b []graph.WeightedEdge
	for i := 0; i < batches; i++ {
		var err error
		if b, err = g.next(b, size); err != nil {
			t.Fatal(err)
		}
		for _, u := range b {
			fmt.Fprintf(&buf, "%v %d\n", u.E, u.W)
			st = append(st, stream.Update{Op: stream.Op(u.W), Edge: u.E})
		}
	}
	return buf.Bytes(), st
}

var generators = []struct {
	name string
	n    int
	gen  func(seed uint64) *generator
}{
	{"dense", denseN, func(seed uint64) *generator { return newDenseGen(denseN, cutK, 2*denseN, seed) }},
	{"serve", serveN, func(seed uint64) *generator { return newDenseGen(serveN, cutK, 2*serveN, seed) }},
	{"sparse", sparseN, func(seed uint64) *generator { return newSparseGen(sparseN, sparseBudget/2, sparseWaves, seed) }},
}

func TestStreamDeterministic(t *testing.T) {
	for _, c := range generators {
		a, _ := streamBytes(t, c.gen(1), 12, 1024)
		b, _ := streamBytes(t, c.gen(1), 12, 1024)
		other, _ := streamBytes(t, c.gen(2), 12, 1024)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different streams", c.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", c.name)
		}
	}
}

// TestStreamReplaysToExactGraph replays the emitted stream independently:
// Materialize rejects any deletion of an absent edge, and the result must
// be the generator's live graph.
func TestStreamReplaysToExactGraph(t *testing.T) {
	for _, c := range generators {
		for seed := uint64(1); seed <= 3; seed++ {
			g := c.gen(seed)
			_, st := streamBytes(t, g, 40, 1024)
			h, err := stream.Materialize(st, c.n, 2)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if !h.Equal(g.graph()) {
				t.Errorf("%s seed %d: replay differs from the live graph", c.name, seed)
			}
			dels := 0
			for _, u := range st {
				if u.Op == stream.Delete {
					dels++
				}
			}
			if dels == 0 {
				t.Errorf("%s seed %d: no deletions in %d updates", c.name, seed, len(st))
			}
		}
	}
}

func TestSeparatorQueriesDisconnect(t *testing.T) {
	// After exactly the Harary base every vertex has degree cutK.
	g := newDenseGen(serveN, cutK, 2*serveN, 1)
	streamBytes(t, g, 1, serveN*cutK/2)
	for i := 0; i < 20; i++ {
		set := g.cutQuery(cutK, true)
		if len(set) > cutK || !g.disconnects(set) {
			t.Fatalf("separator %v does not disconnect the graph", set)
		}
	}
}

func TestCheckerCountsFlippedAnswers(t *testing.T) {
	g := newDenseGen(serveN, cutK, 2*serveN, 1)
	streamBytes(t, g, 1, 1024)
	var honest, flipped tally
	for i := 0; i < 50; i++ {
		u, v := g.pair()
		want := g.connected(u, v)
		honest.answer(want, nil, want)
		got := want
		if i == 7 {
			got = !want
		}
		flipped.answer(got, nil, want)
	}
	if honest.errorRate() != 0 || !newResult(honest, nil).Correct {
		t.Errorf("honest answers scored error rate %v", honest.errorRate())
	}
	if flipped.errorRate() <= 0 || newResult(flipped, nil).Correct {
		t.Errorf("a flipped answer scored error rate %v", flipped.errorRate())
	}
	var failed tally
	failed.answer(true, errors.New("stale decode"), true)
	if failed.errorRate() != 1 {
		t.Errorf("a failed query scored error rate %v", failed.errorRate())
	}
}

// TestMetricNamesMatchBenchmarkJSON runs every workload briefly, and the
// traced suite once, and checks the printed metrics against BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads", len(spec.Workloads))
	}
	check := func(label string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		wantUnits := make(map[string]string)
		for _, m := range want {
			wantUnits[m.Name] = m.Unit
		}
		var missing, extra []string
		for name, unit := range wantUnits {
			m, ok := got[name]
			switch {
			case !ok:
				missing = append(missing, name)
			case m.Unit != unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
			}
		}
		for name := range got {
			if _, ok := wantUnits[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		if len(missing)+len(extra) > 0 {
			t.Errorf("%s: missing %v, not in BENCHMARK.json %v", label, missing, extra)
		}
	}
	for _, w := range spec.Workloads {
		res, _, err := execute(config{workload: w.Name, seed: 3, seconds: 0.5})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
		}
		check(w.Name, res.Metrics, spec.EndToEnd)
	}
	res, _, err := execute(config{workload: "serve-churn", seed: 3, seconds: 1, trace: true,
		traceOut: filepath.Join(t.TempDir(), "trace.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced suite: %d of %d operations failed", res.Failed, res.Attempted)
	}
	check("traced suite", res.Metrics, spec.PerLayer)
}
