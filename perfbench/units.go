package main

import (
	"math/rand/v2"
	"time"

	"graphsketch/internal/field"
	"graphsketch/internal/graph"
	"graphsketch/internal/l0"
	"graphsketch/internal/recovery"
	"graphsketch/internal/sketch"
	"graphsketch/internal/workload"
)

// Unit costs of the layers below the paper structures, each timed on a
// fixed input (independent of the workload seed) as the median over
// blocks of calls. The domain is the edge-key space of the dense
// workloads' vertex count, so the sampler shapes match theirs.

const unitN = 256

// Results the timed loops store, so the compiler keeps the calls.
var (
	sink  uint64
	clone *l0.Sampler
)

// perCall times fn over repeated blocks for about budget and returns the
// median nanoseconds per call, where one fn is calls calls.
func perCall(budget time.Duration, calls int, fn func()) float64 {
	var per []float64
	for end := time.Now().Add(budget); time.Now().Before(end) || len(per) < 5; {
		t0 := time.Now()
		fn()
		per = append(per, float64(time.Since(t0))/float64(calls))
	}
	return median(per)
}

func unitCosts(layers map[string]metric, t *tally) {
	const budget = 200 * time.Millisecond
	dom := graph.MustDomain(unitN, 2).Size()
	rng := rand.New(rand.NewPCG(7, 7))
	const calls = 4096
	keys := make([]uint64, calls)
	elems := make([]field.Elem, calls)
	for i := range keys {
		keys[i] = rng.Uint64N(dom)
		elems[i] = field.Reduce(rng.Uint64())
	}

	mul := perCall(budget, calls, func() {
		acc := field.Elem(1)
		for _, e := range elems {
			acc = field.Mul(acc, e)
		}
		sink += uint64(acc)
	})
	layers["field.mul_ns"] = metric{mul, "ns"}

	// Insert then delete the same keys, so the structures stay at a fixed
	// load however many blocks run.
	ss := recovery.NewSSparse(11, dom, recovery.SSparseConfig{S: 8})
	upd := perCall(budget, 2*calls, func() {
		for _, k := range keys {
			ss.Update(k, 1)
		}
		for _, k := range keys {
			ss.Update(k, -1)
		}
	})
	layers["recovery.ssparse_update_ns"] = metric{upd, "ns"}

	smp := l0.New(13, dom, l0.Config{})
	l0u := perCall(budget, 2*calls, func() {
		for _, k := range keys {
			smp.Update(k, 1)
		}
		for _, k := range keys {
			smp.Update(k, -1)
		}
	})
	layers["l0.update_ns"] = metric{l0u, "ns"}

	// A sampler holding 64 incident edges, as a vertex of a dense graph does.
	full := l0.New(13, dom, l0.Config{})
	for _, k := range keys[:64] {
		full.Update(k, 1)
	}
	const reps = 256
	cloneNs := perCall(budget, reps, func() {
		for i := 0; i < reps; i++ {
			clone = full.Clone()
		}
	})
	layers["l0.clone_ns"] = metric{cloneNs, "ns"}

	// acc is a clone of full, so the two share seed and shape and
	// AddScaled cannot fail.
	acc := full.Clone()
	add := perCall(budget, 2*reps, func() {
		for i := 0; i < reps; i++ {
			_ = acc.AddScaled(full, 1)
			_ = acc.AddScaled(full, -1)
		}
	})
	layers["l0.add_scaled_ns"] = metric{add, "ns"}

	// Spanning-forest decode of a Harary(n, 3) graph; every decode is an
	// operation of the run.
	sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: unitN, Seed: 17})
	if t.op(err) && t.op(sp.UpdateGraph(workload.MustHarary(unitN, 3), 1)) {
		dec := perCall(budget, 1, func() {
			_, err := sp.SpanningGraph()
			t.op(err)
		})
		layers["sketch.spanning_decode_ms"] = metric{dec / 1e6, "ms"}
	}
}
