// Command perfbench is graphsketch's end-to-end benchmark. It runs one
// closed-loop workload (one client goroutine) against the library, checks
// every answer against the exact graph the stream describes, and prints
// the end-to-end metrics; with -trace 1 it instead runs every workload
// under a span tracer and prints the per-layer metrics.
//
// End-to-end runs use one P (GOMAXPROCS=1) and time every sample on the
// process CPU clock (see cpuNow), so a host that steals vCPU time moves
// neither; the stamp line's cpu_share is the share of the run's wall time
// the process got.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload ingest-dense -seed 1 -seconds 40 -trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// records the environment, sample counts, error rate and per-workload
// details.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest-dense, serve-churn, sparse-hybrid or cluster-tcp")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (stream and query choices)")
	flag.Float64Var(&cfg.seconds, "seconds", 40, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer suite instead")
	flag.StringVar(&cfg.traceOut, "trace-out", ".bench_build/perfbench-trace.jsonl", "where the traced suite writes its spans")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	res, info, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func execute(cfg config) (*result, map[string]any, error) {
	pass, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return tracedSuite(cfg, pass, d, map[string]any{"env": environment(cfg)})
	}
	// One P: the closed-loop client then needs a single vCPU, so the
	// figures do not swing with how much of the host's second vCPU other
	// tenants take. The traced run keeps the default, to measure the shard
	// fan-out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	info := map[string]any{"env": environment(cfg)}
	r := newRun(nil)
	r.endToEnd = true
	wall0, cpu0 := time.Now(), cpuNow()
	if err := pass(r, cfg.seed, d); err != nil {
		return nil, nil, err
	}
	info["cpu_share"] = (cpuNow() - cpu0).Seconds() / time.Since(wall0).Seconds()
	res := newResult(r.tally, map[string]metric{
		"setup_s":              {median(r.setups), "s"},
		"ingest_updates_per_s": {median(r.rates), "1/s"},
		"fresh_query_p50_ms":   {median(r.freshMs), "ms"},
		"fresh_query_p95_ms":   {quantile(r.freshMs, 0.95), "ms"},
		"warm_queries_per_s":   {median(r.warm), "1/s"},
		"heap_mib":             {median(r.heapMiB), "MiB"},
	})
	info["samples"] = map[string]int{
		"setups": len(r.setups), "heaps": len(r.heapMiB), "fresh_query": len(r.freshMs), "warm_blocks": len(r.warm),
		"ingest_batches": len(r.rates), "ingest_updates": r.updates,
	}
	info["error_rate"] = r.tally.errorRate()
	info["failed_ops"], info["wrong_answers"] = r.tally.failed, r.tally.wrong
	info["detail"] = r.detail
	return res, info, nil
}

func newResult(t tally, m map[string]metric) *result {
	return &result{Correct: t.bad() == 0, Attempted: t.attempted, Failed: t.bad(), Metrics: m}
}

// environment is the stamp every result carries.
func environment(cfg config) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       commit,
		"vcs_modified": modified,
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
	}
}
