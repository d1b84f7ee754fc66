package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"graphsketch"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
	"graphsketch/internal/oracle"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/sketch"
)

// Workload shapes. Sketch seeds are fixed; only the stream and the query
// choices depend on the workload seed.
const (
	sketchSeed   = 1
	cutK         = 3  // Theorem 4 query parameter and Harary connectivity
	setupRepeats = 15 // set-ups per run; setup_s is their median
	// settleShare is the share of the run, at its start, whose samples
	// are left out: the first batches allocate sampler levels and grow
	// the heap to its steady size.
	settleShare = 0.1

	// vertexconn sizes: n and the number of subsampled subgraphs. The
	// serving sketch answers Theorem 4 queries and gets enough subgraphs
	// that no query of a run goes wrong; the ingest sketch answers only
	// Connected, which needs far fewer.
	denseN, denseSubgraphs     = 128, 48
	denseBatch, denseSmall     = 1024, 32
	denseFreshPer              = 2 // fresh answers per large batch
	serveN, serveSubgraphs     = 64, 192
	serveBatch                 = 32
	sparseN, sparseBudget      = 2048, 32
	sparseBatch, sparseEvery   = 1024, 2
	sparseWaves                = 2
	clusterN, clusterShards    = 64, 2
	clusterBatch, clusterEvery = 256, 3

	followUps = 63   // checked Connected queries after each fresh answer
	warmCalls = 4096 // Connected calls per timed warm block
)

// run accumulates one workload pass: the operation tally, the end-to-end
// samples and, when traced, the spans and per-layer metrics.
type run struct {
	tr *tracer
	// endToEnd marks a run that reports the end-to-end metrics: it builds
	// spare systems and samples the heap through the run. The traced
	// suite's passes leave it off, so its traced and untraced passes do
	// the same work.
	endToEnd bool
	tally    tally
	phase    int64 // span id of the current phase
	ops      int64 // batch and query ids

	setups []float64 // seconds
	// rates holds updates per second inside each mutation call that
	// counts toward the ingest rate, and updates their total. rebatch marks
	// ingest-dense's small batches, which only set up a fresh answer and
	// are left out.
	rates   []float64
	updates int
	rebatch bool
	// settling marks the warm-up at the start of the run: its operations
	// are checked and counted, but its samples are left out.
	settling bool
	freshMs  []float64 // ms
	warm     []float64 // queries/s per block
	heapMiB  []float64 // live-heap samples; heap_mib is their median
	pairs    [][2]int  // the warm blocks' query pairs, drawn once
	got      []bool

	decodes  []float64 // ms inside the Decode closure
	failures int       // vertexconn forest decode failures
	layers   map[string]metric
	detail   map[string]any
}

func newRun(tr *tracer) *run {
	return &run{tr: tr, layers: make(map[string]metric), detail: make(map[string]any)}
}

func (r *run) beginPhase(name string) {
	r.tr.end(r.phase)
	r.phase = r.tr.begin(name, 0, 0)
}

// timeSetup runs one set-up and records its duration. It collects first,
// so every set-up starts from the same clean heap.
func (r *run) timeSetup(fn func() error) error {
	runtime.GC()
	id := r.tr.begin("setup", r.phase, 0)
	t0 := cpuNow()
	err := fn()
	r.setups = append(r.setups, (cpuNow() - t0).Seconds())
	r.tr.end(id)
	return err
}

// mutate applies one batch through f, timing only the call, and returns
// the CPU-clock reading when the call returned: the start of the
// fresh-answer clock.
func (r *run) mutate(name string, batch []graph.WeightedEdge, f func([]graph.WeightedEdge) error) time.Duration {
	r.ops++
	id := r.tr.begin(name, r.phase, r.ops)
	r.tr.setCur(id)
	t0 := cpuNow()
	err := f(batch)
	done := cpuNow()
	r.tr.end(id)
	if !r.rebatch && !r.settling {
		r.rates = append(r.rates, float64(len(batch))/(done-t0).Seconds())
		r.updates += len(batch)
	}
	if !r.tally.op(err) {
		r.note("%s of %d updates: %v", name, len(batch), err)
	}
	return done
}

// note keeps the first few failures for the result's detail line.
func (r *run) note(format string, args ...any) {
	notes, _ := r.detail["failures"].([]string)
	if len(notes) < 5 {
		r.detail["failures"] = append(notes, fmt.Sprintf(format, args...))
	}
}

// fresh times the first answer after a batch, from the batch's return.
func (r *run) fresh(name string, since time.Duration, q func() (bool, error)) (bool, error) {
	r.ops++
	id := r.tr.begin(name, r.phase, r.ops)
	r.tr.setCur(id)
	got, err := q()
	if !r.settling {
		r.freshMs = append(r.freshMs, ms(cpuNow()-since))
	}
	r.tr.end(id)
	return got, err
}

// followUp checks count more Connected answers on the same snapshot.
func (r *run) followUp(o *oracle.Oracle, g *generator, count int) {
	for i := 0; i < count; i++ {
		u, v := g.pair()
		got, err := o.Connected(u, v)
		if want := g.connected(u, v); !r.tally.answer(got, err, want) {
			r.note("op %d: follow-up Connected(%d, %d) = %v, want %v, err %v", r.ops, u, v, got, want, err)
		}
	}
}

// cutCycle answers a fresh Theorem 4 query, alternating true separators
// and random sets, then the follow-up Connected queries.
func (r *run) cutCycle(o *oracle.Oracle, g *generator, since time.Duration) {
	set := g.cutQuery(cutK, r.ops%2 == 0)
	got, err := r.fresh("oracle.DisconnectedBy", since, func() (bool, error) {
		return o.DisconnectedBy(set)
	})
	if want := g.disconnects(set); !r.tally.answer(got, err, want) {
		r.note("op %d: DisconnectedBy(%v) = %v, want %v, err %v", r.ops, set, got, want, err)
	}
	r.followUp(o, g, followUps)
	r.warmBlock(o, g)
}

// connCycle answers a fresh Connected query, then the follow-ups.
func (r *run) connCycle(o *oracle.Oracle, g *generator, since time.Duration) {
	u, v := g.pair()
	got, err := r.fresh("oracle.Connected", since, func() (bool, error) {
		o.Invalidate()
		return o.Connected(u, v)
	})
	if want := g.connected(u, v); !r.tally.answer(got, err, want) {
		r.note("op %d: fresh Connected(%d, %d) = %v, want %v, err %v", r.ops, u, v, got, want, err)
	}
	r.followUp(o, g, followUps)
	r.warmBlock(o, g)
}

// warmBlock times one block of Connected calls on the unchanged snapshot
// a cycle just answered from. Blocks are spread over the whole run, one
// per fresh answer, so a passing disturbance moves few of them; each block
// is one operation, wrong if any answer in it is.
func (r *run) warmBlock(o *oracle.Oracle, g *generator) {
	if r.pairs == nil {
		r.pairs = make([][2]int, warmCalls)
		for i := range r.pairs {
			u, v := g.pair()
			r.pairs[i] = [2]int{u, v}
		}
		r.got = make([]bool, warmCalls)
	}
	id := r.tr.begin("warm.block", r.phase, r.ops)
	var err error
	t0 := cpuNow()
	for i, p := range r.pairs {
		ok, e := o.Connected(p[0], p[1])
		if e != nil {
			err = e
		}
		r.got[i] = ok
	}
	d := cpuNow() - t0
	r.tr.end(id)
	if !r.settling {
		r.warm = append(r.warm, float64(warmCalls)/d.Seconds())
	}
	same := true
	for i, p := range r.pairs {
		same = same && r.got[i] == g.connected(p[0], p[1])
	}
	if !r.tally.answer(same, err, true) {
		r.note("op %d: warm block wrong or failed, err %v", r.ops, err)
	}
}

// liveHeapMiB is the live heap after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// finish ends the pass and takes the live heap while every structure is
// still reachable.
func (r *run) finish() {
	r.tr.end(r.phase)
	r.heapMiB = append(r.heapMiB, liveHeapMiB())
}

// settle is how long the warm-up at the start of a run lasts.
func settle(d time.Duration) time.Duration {
	return time.Duration(float64(d) * settleShare)
}

// vcSystem is a vertexconn sketch behind the benchmark's own oracle, and
// optionally the local shard-plane engine.
type vcSystem struct {
	s   *vertexconn.Sketch
	eng *engine.Engine
	o   *oracle.Oracle
}

func (r *run) setupVC(n, subgraphs int, withEngine bool) (*vcSystem, error) {
	sys := &vcSystem{}
	err := r.timeSetup(func() error {
		s, err := vertexconn.New(vertexconn.Params{N: n, K: cutK, Subgraphs: subgraphs, Seed: sketchSeed})
		if err != nil {
			return err
		}
		sys.s = s
		if withEngine {
			var target graphsketch.Sharded = s
			if r.tr != nil {
				target = timedSharded{Sharded: s, tr: r.tr}
			}
			sys.eng = engine.New(target, engine.Options{})
		}
		sys.o, err = oracle.New(oracle.Config{
			Sketch:    s,
			N:         n,
			MaxRemove: cutK,
			Decode: func(sp *obs.Span) (*graph.Hypergraph, error) {
				id := r.tr.begin("vertexconn.BuildH", r.tr.curID(), 0)
				t0 := time.Now()
				h, failures, err := s.BuildHTraced(sp)
				r.decodes = append(r.decodes, ms(time.Since(t0)))
				r.failures += failures
				r.tr.end(id)
				return h, err
			},
		})
		return err
	})
	return sys, err
}

func (s *vcSystem) close() {
	if s != nil && s.eng != nil {
		s.eng.Close()
	}
}

// spareSetup builds and closes a spare system each time the run passes
// the next of setupRepeats evenly spaced marks; the first set-up, at the
// start, is the system the run uses. Spread over the run, the set-ups see
// the host as the rest of the run does, not only as it was at the start.
func spareSetup[S interface{ close() }](r *run, start time.Time, d time.Duration, build func() (S, error)) {
	n := len(r.setups)
	if !r.endToEnd || n >= setupRepeats || time.Since(start) < d*time.Duration(n)/setupRepeats {
		return
	}
	sys, err := build()
	sys.close()
	if !r.tally.op(err) {
		r.note("spare set-up: %v", err)
	}
}

// runIngestDense: a Harary base plus Erdős–Rényi churn waves through the
// local engine. Each round is one large timed batch, then denseFreshPer
// small batches each followed by a fresh Connected answer. Interleaved,
// the ingest and fresh samples both span the whole run, so neither rests
// on a few seconds of the host.
func runIngestDense(r *run, seed uint64, d time.Duration) error {
	start := time.Now()
	r.beginPhase("phase.setup")
	g := newDenseGen(denseN, cutK, 2*denseN, seed)
	build := func() (*vcSystem, error) { return r.setupVC(denseN, denseSubgraphs, true) }
	sys, err := build()
	defer sys.close()
	if err != nil {
		return err
	}
	var buf []graph.WeightedEdge
	loopStart := time.Now()
	for time.Since(start) < d*97/100 {
		spareSetup(r, start, d, build)
		r.settling = time.Since(loopStart) < settle(d)
		r.beginPhase("phase.ingest")
		if buf, err = g.next(buf, denseBatch); err != nil {
			return err
		}
		r.rebatch = false
		r.mutate("engine.UpdateBatch", buf, sys.eng.UpdateBatch)
		r.beginPhase("phase.fresh")
		r.rebatch = true
		for i := 0; i < denseFreshPer; i++ {
			if buf, err = g.next(buf, denseSmall); err != nil {
				return err
			}
			done := r.mutate("engine.UpdateBatch", buf, sys.eng.UpdateBatch)
			r.connCycle(sys.o, g, done)
		}
	}
	r.finish()
	r.detail["vertexconn.forest_failures"] = r.failures
	if r.tr != nil {
		ingest := r.tr.named("phase.ingest", 0)
		routes := r.tr.under("engine.UpdateBatch", ingest)
		busy := map[int64]time.Duration{}
		var shardTotal time.Duration
		for _, s := range r.tr.under("shard.UpdateBatchRange", routes) {
			busy[s.Op] += s.dur()
			shardTotal += s.dur()
		}
		var maxBusy time.Duration
		for _, b := range busy {
			maxBusy = max(maxBusy, b)
		}
		shards := float64(sys.eng.Workers())
		r.layers["shardplane.route_ms_p50"] = metric{median(durationsMs(routes)), "ms"}
		r.layers["shardplane.shard_busy_frac"] = metric{shardTotal.Seconds() / (shards * total(routes).Seconds()), "frac"}
		r.layers["shardplane.shard_skew"] = metric{maxBusy.Seconds() * shards / shardTotal.Seconds(), "ratio"}
		r.layers["target_frac.ingest-dense"] = metric{r.tr.covered(routes).Seconds() / total(ingest).Seconds(), "frac"}
		r.layers["sketch.words.ingest-dense"] = metric{float64(sys.s.Words()), "words"}
	}
	return nil
}

// runServeChurn: small churn batches through the oracle, each followed by
// a fresh Theorem 4 answer and follow-up Connected queries.
func runServeChurn(r *run, seed uint64, d time.Duration) error {
	start := time.Now()
	r.beginPhase("phase.setup")
	g := newDenseGen(serveN, cutK, 2*serveN, seed)
	build := func() (*vcSystem, error) { return r.setupVC(serveN, serveSubgraphs, false) }
	sys, err := build()
	if err != nil {
		return err
	}
	var buf []graph.WeightedEdge
	r.beginPhase("phase.serve")
	serve := r.phase
	serveStart := time.Now()
	for time.Since(start) < d*97/100 {
		spareSetup(r, start, d, build)
		r.settling = time.Since(serveStart) < settle(d)
		if buf, err = g.next(buf, serveBatch); err != nil {
			return err
		}
		done := r.mutate("oracle.UpdateBatch", buf, sys.o.UpdateBatch)
		r.cutCycle(sys.o, g, done)
	}
	r.finish()
	r.detail["vertexconn.forest_failures"] = r.failures
	if r.tr != nil {
		fresh := r.tr.named("oracle.DisconnectedBy", serve)
		kids := r.tr.children()
		self := make([]float64, len(fresh))
		for i, f := range fresh {
			self[i] = float64(f.dur()-unionWithin(kids[f.ID], f.Start, f.End)) / float64(time.Microsecond)
		}
		st := sys.o.CacheStats()
		batches := len(r.tr.named("oracle.UpdateBatch", serve))
		updates := durationsMs(r.tr.named("oracle.UpdateBatch", serve))
		r.layers["vertexconn.build_h_ms_p50"] = metric{median(r.decodes), "ms"}
		r.layers["vertexconn.build_h_ms_p95"] = metric{quantile(r.decodes, 0.95), "ms"}
		r.layers["vertexconn.forest_success_frac"] = metric{1 - float64(r.failures)/float64(len(r.decodes)*serveSubgraphs), "frac"}
		r.layers["oracle.rebuilds_per_batch"] = metric{float64(st.Rebuilds) / float64(batches), "ratio"}
		r.layers["oracle.query_self_us"] = metric{median(self), "us"}
		r.layers["oracle.hit_ratio"] = metric{float64(st.Hits) / float64(st.Hits+st.Misses), "frac"}
		r.layers["oracle.update_batch_us"] = metric{median(updates) * 1000, "us"}
		r.layers["target_frac.serve-churn"] = metric{r.tr.covered(fresh).Seconds() / total(fresh).Seconds(), "frac"}
		r.layers["sketch.words.serve-churn"] = metric{float64(sys.s.Words()), "words"}
	}
	return nil
}

// hybridSystem is a hybrid-wrapped spanning sketch behind the local engine
// and the benchmark's own oracle.
type hybridSystem struct {
	h   *hybrid.Sketch
	eng *engine.Engine
	o   *oracle.Oracle
}

func (s *hybridSystem) close() {
	if s != nil && s.eng != nil {
		s.eng.Close()
	}
}

func (r *run) setupHybrid() (*hybridSystem, error) {
	sys := &hybridSystem{}
	err := r.timeSetup(func() error {
		inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: sparseN, Seed: sketchSeed})
		if err != nil {
			return err
		}
		h, err := hybrid.New(inner, sparseBudget)
		if err != nil {
			return err
		}
		sys.h = h
		var target graphsketch.Sharded = h
		if r.tr != nil {
			target = timedSharded{Sharded: h, tr: r.tr}
		}
		sys.eng = engine.New(target, engine.Options{})
		sys.o, err = oracle.New(oracle.Config{
			Sketch: h,
			N:      sparseN,
			Decode: func(sp *obs.Span) (*graph.Hypergraph, error) {
				id := r.tr.begin("engine.DecodeHybrid", r.tr.curID(), 0)
				t0 := time.Now()
				g, err := engine.DecodeHybridTraced(h, sp)
				r.decodes = append(r.decodes, ms(time.Since(t0)))
				r.tr.end(id)
				return g, err
			},
		})
		return err
	})
	return sys, err
}

// runSparseHybrid: repeated finite episodes, each a fresh hybrid sketch
// ingesting a sparse power-law graph with boundary churn waves, answering
// a fresh Connected query after every sparseEvery-th batch. Spilling is
// monotone, so episodes keep the spilled share the same however long the
// run is.
func runSparseHybrid(r *run, seed uint64, d time.Duration) error {
	start := time.Now()
	var spilled, words []float64
	var buf []graph.WeightedEdge
	for ep := uint64(0); ; ep++ {
		r.beginPhase("phase.episode")
		r.settling = time.Since(start) < settle(d)
		g := newSparseGen(sparseN, sparseBudget/2, sparseWaves, seed*1_000_003+ep)
		sys, err := r.setupHybrid()
		if err != nil {
			sys.close()
			return err
		}
		for b := 1; ; b++ {
			if buf, err = g.next(buf, sparseBatch); err != nil {
				sys.close()
				return err
			}
			if len(buf) == 0 {
				break
			}
			done := r.mutate("engine.UpdateBatch", buf, sys.eng.UpdateBatch)
			if b%sparseEvery == 0 || len(buf) < sparseBatch {
				r.connCycle(sys.o, g, done)
			}
		}
		spilled = append(spilled, float64(sys.h.SpilledCount())/sparseN)
		words = append(words, float64(sys.h.StateWords()))
		if time.Since(start) < d*97/100 {
			// Every episode ends on a different graph, so heap_mib is
			// the median over the episodes' ends, not the last one's.
			if r.endToEnd && !r.settling {
				r.heapMiB = append(r.heapMiB, liveHeapMiB())
			}
			sys.close()
			continue
		}
		r.finish()
		defer sys.close()
		if r.tr != nil {
			routes := r.tr.named("engine.UpdateBatch", -1)
			decode := total(r.tr.named("engine.DecodeHybrid", -1))
			r.layers["hybrid.spilled_frac"] = metric{median(spilled), "frac"}
			r.layers["hybrid.state_words"] = metric{median(words), "words"}
			r.layers["hybrid.decode_ms"] = metric{median(r.decodes), "ms"}
			r.layers["hybrid.route_ms_p50"] = metric{median(durationsMs(routes)), "ms"}
			episodes := total(r.tr.named("phase.episode", 0))
			r.layers["target_frac.sparse-hybrid"] = metric{(total(routes) + decode).Seconds() / episodes.Seconds(), "frac"}
			r.layers["sketch.words.sparse-hybrid"] = metric{float64(sys.h.Words()), "words"}
		}
		return nil
	}
}

// clusterSystem is a spanning sketch sharded over in-process TCP shard
// servers on loopback, fed by the engine and served by the coordinator
// oracle.
type clusterSystem struct {
	servers []*shardplane.Server
	serving sync.WaitGroup
	proto   *sketch.SpanningSketch
	tr      shardplane.Transport
	timed   *timedTransport // nil when untraced
	eng     *engine.Engine
	o       *oracle.Oracle
}

func (s *clusterSystem) close() {
	if s == nil {
		return
	}
	if s.eng != nil {
		s.eng.Close()
	} else if s.tr != nil {
		s.tr.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	s.serving.Wait()
}

func (r *run) setupCluster() (*clusterSystem, error) {
	sys := &clusterSystem{}
	err := r.timeSetup(func() error {
		wire := &byteCounter{}
		var addrs []string
		for i := 0; i < clusterShards; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			if r.tr != nil {
				ln = countingListener{Listener: ln, c: wire}
			}
			srv := shardplane.NewServer(ln)
			sys.servers = append(sys.servers, srv)
			sys.serving.Add(1)
			go func() {
				defer sys.serving.Done()
				// Serve returns nil once Close stops it; any other error
				// surfaces as failed routes.
				_ = srv.Serve()
			}()
			addrs = append(addrs, ln.Addr().String())
		}
		proto, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: clusterN, Seed: sketchSeed})
		if err != nil {
			return err
		}
		sys.proto = proto
		tcp, err := shardplane.DialTCP(proto, addrs, shardplane.TCPOptions{})
		if err != nil {
			return err
		}
		sys.tr = tcp
		if r.tr != nil {
			sys.timed = &timedTransport{Transport: tcp, tr: r.tr, wire: wire}
			sys.tr = sys.timed
		}
		sys.eng = engine.NewWithTransport(sys.tr)
		sys.o, err = oracle.ForCoordinator(sys.tr, proto)
		return err
	})
	return sys, err
}

// runClusterTCP: churn batches routed to two TCP shard servers; after
// every clusterEvery-th batch a fresh Connected answer gathers the shards'
// checkpoints, decodes and queries.
func runClusterTCP(r *run, seed uint64, d time.Duration) error {
	start := time.Now()
	r.beginPhase("phase.setup")
	g := newDenseGen(clusterN, cutK, 2*clusterN, seed)
	sys, err := r.setupCluster()
	defer sys.close()
	if err != nil {
		return err
	}
	var buf []graph.WeightedEdge
	r.beginPhase("phase.serve")
	serveStart := time.Now()
	for b := 1; time.Since(start) < d*97/100; b++ {
		spareSetup(r, start, d, r.setupCluster)
		if buf, err = g.next(buf, clusterBatch); err != nil {
			return err
		}
		done := r.mutate("engine.UpdateBatch", buf, sys.eng.UpdateBatch)
		if b%clusterEvery == 0 {
			before := sys.o.CacheStats()
			r.connCycle(sys.o, g, done)
			after := sys.o.CacheStats()
			// Each rebuild gathers every shard: count the gathers as
			// operations of their own.
			r.tally.attempted += int64(after.Rebuilds - before.Rebuilds)
			r.tally.failed += int64(after.Failures - before.Failures)
		}
	}
	serveWall := time.Since(serveStart)
	r.finish()
	if r.tr != nil {
		t := sys.timed
		routes := r.tr.named("transport.Route", -1)
		gathers := r.tr.named("transport.Gather", -1)
		r.layers["shardplane.tcp_route_ms_p50"] = metric{median(durationsMs(routes)), "ms"}
		r.layers["shardplane.tcp_bytes_per_update"] = metric{float64(t.routeBytes) / float64(t.routed), "bytes"}
		r.layers["shardplane.gather_ms_p50"] = metric{median(durationsMs(gathers)), "ms"}
		r.layers["codec.gather_bytes"] = metric{median(t.gatherBytes), "bytes"}
		r.layers["target_frac.cluster-tcp"] = metric{(total(routes) + total(gathers)).Seconds() / serveWall.Seconds(), "frac"}
		gathered, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: clusterN, Seed: sketchSeed})
		if r.tally.op(err) && r.tally.op(sys.tr.Gather(gathered)) {
			r.layers["sketch.words.cluster-tcp"] = metric{float64(gathered.Words()), "words"}
		}
	}
	return nil
}

// workloads maps each workload name to its pass. The traced suite runs all
// of them. BENCHMARK.json leaves cluster-tcp out of its end-to-end
// workloads and keeps only its per-layer metrics: its loopback round trips
// between two vCPUs swing too far with host CPU steal for a 25% bound.
var workloads = []struct {
	name string
	run  func(r *run, seed uint64, d time.Duration) error
}{
	{"ingest-dense", runIngestDense},
	{"serve-churn", runServeChurn},
	{"sparse-hybrid", runSparseHybrid},
	{"cluster-tcp", runClusterTCP},
}

func workloadByName(name string) (func(r *run, seed uint64, d time.Duration) error, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
