package main

import (
	"fmt"
	"os"

	"graphsketch/internal/bench"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// runE14 measures the adaptive hybrid exact/sketch representation
// (internal/hybrid) on the sparse streams it exists for: power-law graphs
// whose typical vertex fits a small exact buffer while hub vertices spill
// into the wrapped spanning sketch, with churn waves driving degrees across
// the spill boundary. For each budget the table reports how much of the
// graph stayed exact, the per-sketch state size against the pure sketch fed
// the same stream, and whether the mixed exact/sketch decode recovered the
// true components. With -input the sweep also runs on the on-disk edge
// list, so the space table can be reproduced on a real dataset.
func runE14(cfg Config, out *os.File) error {
	t := bench.NewTable("E14 — hybrid exact/sketch representation: space vs spill on sparse streams",
		"workload", "n", "budget(words)", "spilled", "hybrid words", "pure words", "ratio", "decode exact")
	t.Note = "Power-law sparse streams (avg degree 4, exponent 2.5) with boundary-churn waves;\n" +
		"'spilled' is the vertex fraction that overflowed its exact buffer. 'ratio' is\n" +
		"pure/hybrid state words — the hybrid's space win. Decode compares components\n" +
		"against ground truth."

	n := 2048
	waves := 3
	trials := 5
	if cfg.Quick {
		n, waves, trials = 512, 2, 2
	}

	type load struct {
		name  string
		final *graph.Hypergraph
	}
	var loads []load
	for trial := 0; trial < trials; trial++ {
		rng := hashutil.NewRand(cfg.Seed, uint64(0xe14<<8|trial))
		loads = append(loads, load{
			fmt.Sprintf("powerlaw/%d", trial),
			workload.SparsePowerLaw(rng, n, 4, 2.5),
		})
	}
	if cfg.Input != "" {
		f, err := os.Open(cfg.Input)
		if err != nil {
			return err
		}
		g, err := stream.ReadEdgeList(f)
		f.Close()
		if err != nil {
			return err
		}
		loads = append(loads, load{"file:" + cfg.Input, g})
	}

	for _, ld := range loads {
		for _, budget := range []int{8, 32, 128} {
			rng := hashutil.NewRand(cfg.Seed, uint64(0xe14<<16|budget))
			st := workload.BoundaryChurnStream(rng, ld.final, budget/2, waves)
			nv := ld.final.N()

			pure, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: nv, Seed: cfg.Seed})
			if err != nil {
				return err
			}
			inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: nv, Seed: cfg.Seed})
			if err != nil {
				return err
			}
			hy, err := hybrid.New(inner, budget)
			if err != nil {
				return err
			}
			for _, s := range []stream.Sink{pure, hy} {
				if err := stream.Apply(st, s); err != nil {
					return err
				}
			}

			var exact bench.Counter
			f, err := hy.Decode(nil)
			if err == nil {
				exact.Observe(sameComponents(ld.final, f))
			} else {
				exact.Observe(false)
			}
			hw := hy.StateWords()
			pw := pure.Words() - pure.SharedWords()
			t.AddRow(ld.name, nv, budget,
				fmt.Sprintf("%.1f%%", 100*float64(hy.SpilledCount())/float64(nv)),
				hw, pw, fmt.Sprintf("%.1fx", float64(pw)/float64(hw)), exact.String())
		}
	}
	emitTable(t, out)
	return nil
}
