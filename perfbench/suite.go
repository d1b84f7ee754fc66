package main

import (
	"runtime"
	"time"

	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketch"
)

// passShare is the share of the run each traced workload pass gets; the
// untraced comparison pass for the tracing overhead gets one more.
const passShare = 0.15

// baselineBatches is the fixed ingest-dense prefix the single-threaded
// baseline and the two core counts replay.
const baselineBatches = 4

// tracedSuite runs the unit-cost probes, every workload under the tracer,
// the single-threaded ingest baseline, and an untraced pass of the chosen
// workload, and reports the per-layer metrics.
func tracedSuite(cfg config, chosen func(*run, uint64, time.Duration) error, d time.Duration, info map[string]any) (*result, map[string]any, error) {
	var t tally
	layers := make(map[string]metric)
	unitCosts(layers, &t)

	pass := time.Duration(float64(d) * passShare)
	var tracers []*tracer
	self := make(map[string]map[string]float64)
	detail := make(map[string]any)
	var tracedRate float64
	for _, w := range workloads {
		r := newRun(newTracer(w.name))
		t0 := time.Now()
		if err := w.run(r, cfg.seed, pass); err != nil {
			return nil, nil, err
		}
		if w.name == cfg.workload {
			tracedRate = float64(r.tally.attempted) / time.Since(t0).Seconds()
		}
		t.add(r.tally)
		for k, v := range r.layers {
			layers[k] = v
		}
		tracers = append(tracers, r.tr)
		self[w.name] = r.tr.selfTimes()
		detail[w.name] = r.detail
	}

	if err := denseBaseline(layers, &t, cfg.seed); err != nil {
		return nil, nil, err
	}
	sup := layers["vertexconn.sampler_updates_per_update"].Value
	layers["model.update_explained_frac"] = metric{
		sup * layers["l0.update_ns"].Value / (layers["vertexconn.update_us"].Value * 1000), "frac"}

	// Tracing overhead: the chosen workload once more, untraced, for the
	// same time; compared by operations completed per second.
	r := newRun(nil)
	t0 := time.Now()
	if err := chosen(r, cfg.seed, pass); err != nil {
		return nil, nil, err
	}
	t.add(r.tally)
	untracedRate := float64(r.tally.attempted) / time.Since(t0).Seconds()
	layers["trace.overhead_frac"] = metric{1 - tracedRate/untracedRate, "frac"}

	if err := writeSpans(cfg.traceOut, tracers); err != nil {
		return nil, nil, err
	}
	info["self_ms"] = self
	info["detail"] = detail
	info["error_rate"] = t.errorRate()
	info["failed_ops"], info["wrong_answers"] = t.failed, t.wrong
	info["trace_file"] = cfg.traceOut
	return newResult(t, layers), info, nil
}

// denseBaseline replays a fixed ingest-dense prefix through the sketch's
// own serial UpdateBatch and through the engine, each at GOMAXPROCS=1 and
// at nproc. Each replay gets a fresh sketch and applies the prefix once
// untimed, so the lazily allocated sampler levels exist before the timed
// pass.
func denseBaseline(layers map[string]metric, t *tally, seed uint64) error {
	g := newDenseGen(denseN, cutK, 2*denseN, seed)
	var prefix [][]graph.WeightedEdge
	updates := 0
	for i := 0; i < baselineBatches; i++ {
		b, err := g.next(nil, denseBatch)
		if err != nil {
			return err
		}
		prefix = append(prefix, b)
		updates += len(b)
	}
	replay := func(procs int, viaEngine bool) (time.Duration, *vertexconn.Sketch, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := vertexconn.New(vertexconn.Params{N: denseN, K: cutK, Subgraphs: denseSubgraphs, Seed: sketchSeed})
		if err != nil {
			return 0, nil, err
		}
		apply := s.UpdateBatch
		if viaEngine {
			eng := engine.New(s, engine.Options{})
			defer eng.Close()
			apply = eng.UpdateBatch
		}
		for _, b := range prefix {
			t.op(apply(b))
		}
		t0 := time.Now()
		for _, b := range prefix {
			t.op(apply(b))
		}
		return time.Since(t0), s, nil
	}
	nproc := runtime.NumCPU()
	var times [4]time.Duration
	var s *vertexconn.Sketch
	for i, c := range []struct {
		procs  int
		engine bool
	}{{1, false}, {1, true}, {nproc, false}, {nproc, true}} {
		var err error
		if times[i], s, err = replay(c.procs, c.engine); err != nil {
			return err
		}
	}
	layers["shardplane.parallel_speedup_1cpu"] = metric{times[0].Seconds() / times[1].Seconds(), "x"}
	layers["shardplane.parallel_speedup"] = metric{times[2].Seconds() / times[3].Seconds(), "x"}
	layers["vertexconn.update_us"] = metric{float64(times[2]) / float64(time.Microsecond) / float64(updates), "us"}

	// Work count: each update touches, in every subgraph holding both
	// endpoints, one sampler per Borůvka round at each endpoint.
	sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: denseN})
	if err != nil {
		return err
	}
	samplers := 0
	for _, b := range prefix {
		for _, u := range b {
			for i := 0; i < denseSubgraphs; i++ {
				if s.InSubgraph(i, u.E[0]) && s.InSubgraph(i, u.E[1]) {
					samplers += sp.Rounds() * len(u.E)
				}
			}
		}
	}
	layers["vertexconn.sampler_updates_per_update"] = metric{float64(samplers) / float64(updates), "count"}
	return nil
}
