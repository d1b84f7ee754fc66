// Package oracle is the query-serving layer over the linear sketches: it
// turns a sketch whose Update is nanoseconds but whose decode (BuildH,
// skeleton peeling) is milliseconds into a structure that answers millions
// of are_connected(u, v) / "does removing S disconnect G?" queries without
// paying a decode per query.
//
// # Epoch-cached decode
//
// An Oracle wraps a sketch together with its decode routine and maintains
//
//   - a monotonic epoch counter, advanced by every mutation through the
//     oracle (Update, UpdateBatch, Merge, Unmarshal, Invalidate), and
//   - an immutable snapshot of the last decode — the decoded subgraph plus
//     a flattened union–find labeling — tagged with the epoch it decoded.
//
// Queries serve lock-free from the snapshot while its epoch matches (a
// cache hit: two atomic loads and an O(α(n))-by-construction component
// lookup, no decode, no lock). A mutation only advances the epoch —
// invalidation is lazy; nothing is recomputed until the next query misses.
// On a miss the rebuild is single-flight: queriers serialize on the rebuild
// lock, the first decodes and publishes a fresh snapshot, and the rest
// re-check under the lock and serve from it — a burst of concurrent
// queriers after a mutation batch triggers exactly one decode.
//
// The snapshot's epoch is exact, not approximate: mutations and decode
// both hold the rebuild lock, so a snapshot tagged with epoch e decoded
// precisely the state after the e-th mutation, and a query that begins
// after a mutation returns can never be served a pre-mutation snapshot
// (the epochs no longer match). The epochguard analyzer (cmd/gsvet)
// enforces the reading discipline mechanically.
//
// # Decode routes
//
// For wraps any of the library's decodable sketches; one unexported route
// table picks each type's decode (spanning forest, skeleton peel, hybrid
// mixed decode, Theorem 4's H, or sparsifier) and its DisconnectedBy cap.
// Decode exposes the same table for one-shot decodes, and ForCoordinator
// uses it for gathered shard state, so a sketch type decodes the same way
// whether it is served locally, from a shard plane, or decoded once.
//
// # Failure semantics
//
// Decode is probabilistic: with an under-provisioned sketch it can exhaust
// its repetition budget (sketch.ErrDecodeFailed somewhere in the error
// chain). The oracle reports that operational condition wrapped in
// graphsketch.ErrStaleDecode — the sketch state is intact and a later
// rebuild may succeed — while programmer errors (mismatched merges,
// out-of-range vertices) pass through unwrapped for errors.Is branching.
package oracle

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// ErrRemoveTooLarge is returned by DisconnectedBy when the removal set
// exceeds the wrapped sketch's query parameter (vertexconn's K): beyond it
// the subsampled H carries no Theorem 4 guarantee.
var ErrRemoveTooLarge = errors.New("oracle: removal set larger than the sketch's query parameter K")

// ErrConfig is returned by New for an invalid Config; the wrapping message
// names the failing field.
var ErrConfig = errors.New("oracle: invalid configuration")

// ErrCoordinatorProxy is returned by coordinator-proxy surfaces that hold
// no local state: the plane's state lives on the shards, so merging into
// or restoring the proxy would silently bypass the transport.
var ErrCoordinatorProxy = errors.New("oracle: coordinator proxy state lives on the shards")

// ErrNoDecodeRoute is returned by For, Decode and ForCoordinator for a
// sketch type the route table has no decode routine for.
var ErrNoDecodeRoute = errors.New("oracle: no decode route for sketch type")

// Config assembles an Oracle from a sketch and its decode routine. For
// fills it from the route table for the library's sketches; Config is
// exported for sketches outside the repository's core set and for callers
// that need a custom decode.
type Config struct {
	// Sketch is the wrapped sketch. All mutations must go through the
	// oracle (or be followed by Invalidate): the oracle serializes them
	// against decode and advances the epoch.
	Sketch graphsketch.Sketch
	// N is the vertex count — the exclusive upper bound for query vertices.
	N int
	// Decode produces the current connectivity snapshot of the sketched
	// graph (a spanning forest, skeleton, H, or sparsifier). It is called
	// with the rebuild lock held, so it may touch the sketch freely. The
	// span is the oracle's rebuild span (nil when tracing is off): hang
	// the decode's trace under it so a slow rebuild attributes down to
	// the peel rounds that caused it.
	Decode func(sp *obs.Span) (*graph.Hypergraph, error)
	// MaxRemove caps DisconnectedBy removal-set sizes (0 = uncapped). For
	// sets it to a vertexconn sketch's K, past which the Theorem 4
	// guarantee lapses.
	MaxRemove int
}

// snapshot is one immutable decode result. A snapshot is shared by any
// number of concurrent queriers and never mutated after publication.
type snapshot struct {
	epoch uint64            // the mutation epoch this snapshot decoded
	comp  []int32           // comp[v] = component label of v in h
	comps int               // number of connected components
	h     *graph.Hypergraph // the decoded subgraph, for vertex-cut queries
}

// Oracle answers connectivity queries against an epoch-cached decode of a
// wrapped sketch. It implements graphsketch.Sketch (mutations pass through
// and advance the epoch) and graphsketch.Oracle; all methods are safe for
// concurrent use.
type Oracle struct {
	cfg Config

	// mu is the rebuild lock: it serializes mutations and decode against
	// each other, making the snapshot's epoch tag exact and the rebuild
	// single-flight.
	mu sync.Mutex
	// epoch is the mutation counter; incremented under mu, read lock-free
	// by the query fast path.
	epoch atomic.Uint64
	// snap is the cached decode snapshot; nil until the first query. It may
	// be read only under an epoch check or the rebuild lock (epochguard).
	snap atomic.Pointer[snapshot]

	hits, misses, rebuilds, failures atomic.Uint64
}

// New returns an Oracle over cfg. The returned oracle has no snapshot yet;
// the first query decodes one.
func New(cfg Config) (*Oracle, error) {
	switch {
	case cfg.Sketch == nil:
		return nil, fmt.Errorf("oracle: Config.Sketch is nil: %w", ErrConfig)
	case cfg.Decode == nil:
		return nil, fmt.Errorf("oracle: Config.Decode is nil: %w", ErrConfig)
	case cfg.N < 1:
		return nil, fmt.Errorf("oracle: need N >= 1, got %d: %w", cfg.N, ErrConfig)
	}
	return &Oracle{cfg: cfg}, nil
}

// Epoch returns the current mutation epoch (graphsketch.Oracle). Queries
// are answered from a snapshot only while its recorded epoch matches.
func (o *Oracle) Epoch() uint64 { return o.epoch.Load() }

// Invalidate advances the epoch without mutating the sketch, forcing the
// next query to rebuild. Call it after mutating the wrapped sketch outside
// the oracle (e.g. an engine ingesting into the sketch directly).
func (o *Oracle) Invalidate() {
	o.mu.Lock()
	o.bumpEpoch()
	o.mu.Unlock()
}

// bumpEpoch advances the mutation epoch and drops an epoch-bump event into
// the flight recorder (a no-op while obs is disabled). Callers hold mu.
func (o *Oracle) bumpEpoch() {
	e := o.epoch.Add(1)
	obs.RecordEvent("oracle.epoch_bump", "epoch", e)
}

// snapshot returns a snapshot whose epoch matched the mutation epoch at
// some point during the call: the lock-free fast path on a warm cache, or
// a single-flight rebuild on a dirty epoch.
func (o *Oracle) snapshot() (*snapshot, error) {
	if s := o.snap.Load(); s != nil && s.epoch == o.epoch.Load() {
		o.hits.Add(1)
		om.hits.Inc()
		return s, nil
	}
	o.misses.Add(1)
	om.misses.Inc()
	o.mu.Lock()
	defer o.mu.Unlock()
	// Re-check under the lock: while this querier waited, a concurrent one
	// may have rebuilt for the same epoch — serving its snapshot is what
	// makes the rebuild single-flight (at most one decode per dirty epoch).
	if s := o.snap.Load(); s != nil && s.epoch == o.epoch.Load() {
		return s, nil
	}
	// Mutations hold mu, so the epoch is stable for the whole decode: the
	// snapshot's tag is exactly the state it decoded.
	epoch := o.epoch.Load()
	o.rebuilds.Add(1)
	om.rebuilds.Inc()
	sp := obs.StartSpan("oracle.rebuild", om.rebuildSpan)
	defer sp.End("n", o.cfg.N, "epoch", epoch)
	h, err := o.cfg.Decode(sp)
	if err != nil {
		o.failures.Add(1)
		om.failures.Inc()
		obs.RecordEvent("oracle.rebuild_failure", "epoch", epoch, "err", err.Error())
		if errors.Is(err, sketch.ErrDecodeFailed) {
			// Operational: the sketch's decode budget ran out. The state is
			// intact; later epochs may decode fine.
			return nil, fmt.Errorf("%w: %w", graphsketch.ErrStaleDecode, err)
		}
		return nil, err
	}
	d := graphalg.ComponentsOf(h)
	comp := make([]int32, o.cfg.N)
	for v := range comp {
		comp[v] = int32(d.Find(v))
	}
	s := &snapshot{epoch: epoch, comp: comp, comps: d.Components(), h: h}
	o.snap.Store(s)
	sp.SetAttrs("edges", h.EdgeCount())
	return s, nil
}

// checkVertex validates a query vertex against [0, N).
func (o *Oracle) checkVertex(v int) error {
	if v < 0 || v >= o.cfg.N {
		return fmt.Errorf("%w: vertex %d outside [0, %d)", graphsketch.ErrVertexRange, v, o.cfg.N)
	}
	return nil
}

// Connected reports whether u and v are connected in the sketched graph
// (graphsketch.Querier): a component-label comparison against the cached
// snapshot — no decode on a warm cache.
func (o *Oracle) Connected(u, v int) (bool, error) {
	var start time.Time
	if om.queryLatency != nil {
		start = time.Now()
	}
	om.queries.Inc()
	if err := o.checkVertex(u); err != nil {
		return false, err
	}
	if err := o.checkVertex(v); err != nil {
		return false, err
	}
	s, err := o.snapshot()
	if err != nil {
		return false, err
	}
	if om.queryLatency != nil {
		om.queryLatency.Observe(time.Since(start).Seconds())
	}
	return s.comp[u] == s.comp[v], nil
}

// Components returns the number of connected components of the sketched
// graph, from the cached snapshot.
func (o *Oracle) Components() (int, error) {
	s, err := o.snapshot()
	if err != nil {
		return 0, err
	}
	return s.comps, nil
}

// DisconnectedBy reports whether removing the vertex set `remove` (with
// drop-incident semantics: every hyperedge touching the set is removed)
// disconnects the surviving vertices of the sketched graph
// (graphsketch.Oracle). Against a vertexconn snapshot this is the paper's
// Theorem 4 query, exact w.h.p. for |remove| ≤ K; duplicates in remove are
// ignored. Removing all but one vertex counts as not disconnecting.
func (o *Oracle) DisconnectedBy(remove []int) (bool, error) {
	var start time.Time
	if om.queryLatency != nil {
		start = time.Now()
	}
	om.queries.Inc()
	set := make(map[int]bool, len(remove))
	for _, v := range remove {
		if err := o.checkVertex(v); err != nil {
			return false, err
		}
		set[v] = true
	}
	if o.cfg.MaxRemove > 0 && len(set) > o.cfg.MaxRemove {
		return false, fmt.Errorf("%w: |S| = %d > K = %d", ErrRemoveTooLarge, len(set), o.cfg.MaxRemove)
	}
	s, err := o.snapshot()
	if err != nil {
		return false, err
	}
	if om.queryLatency != nil {
		om.queryLatency.Observe(time.Since(start).Seconds())
	}
	return graphalg.DisconnectsQueryMode(s.h, set, graph.DropIncident), nil
}

// CacheStats is a point-in-time view of the oracle's cache behavior.
type CacheStats struct {
	// Hits served lock-free from a current snapshot; Misses found the
	// snapshot missing or stale. Rebuilds counts decodes actually run —
	// single-flight means Rebuilds can be far below Misses under
	// concurrent query bursts. Failures counts rebuilds whose decode
	// errored.
	Hits, Misses, Rebuilds, Failures uint64
}

// CacheStats returns the oracle's cumulative cache counters. The same
// counts feed the process-wide obs metrics (oracle_cache_hits_total, ...).
func (o *Oracle) CacheStats() CacheStats {
	return CacheStats{
		Hits:     o.hits.Load(),
		Misses:   o.misses.Load(),
		Rebuilds: o.rebuilds.Load(),
		Failures: o.failures.Load(),
	}
}

// Update applies one weighted hyperedge update through the oracle
// (graphsketch.Updater): the sketch mutates under the rebuild lock and the
// epoch advances, lazily invalidating the snapshot.
func (o *Oracle) Update(e graph.Hyperedge, delta int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	defer o.bumpEpoch()
	return o.cfg.Sketch.Update(e, delta)
}

// UpdateBatch applies a batch of weighted updates through the oracle; one
// batch advances the epoch once, so a query burst after it rebuilds once.
func (o *Oracle) UpdateBatch(batch []graph.WeightedEdge) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	defer o.bumpEpoch()
	return o.cfg.Sketch.UpdateBatch(batch)
}

// Merge adds another sketch into the wrapped one (graphsketch.Mergeable).
// The argument may be the wrapped sketch's type or another *Oracle (whose
// sketch is read under its own rebuild lock; do not merge two oracles into
// each other concurrently).
func (o *Oracle) Merge(x graphsketch.Sketch) error {
	if other, ok := x.(*Oracle); ok {
		other.mu.Lock()
		defer other.mu.Unlock()
		x = other.cfg.Sketch
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	defer o.bumpEpoch()
	return o.cfg.Sketch.Merge(x)
}

// Unmarshal merges serialized sketch contents (graphsketch.Sketch); the
// raw-state no-identity warning of the Sketch interface applies.
func (o *Oracle) Unmarshal(data []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	defer o.bumpEpoch()
	return o.cfg.Sketch.Unmarshal(data)
}

// Marshal serializes the wrapped sketch's contents (graphsketch.Sketch).
func (o *Oracle) Marshal() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cfg.Sketch.Marshal()
}

// Words reports the wrapped sketch's footprint in 64-bit words; the cached
// snapshot is serving state, not sketch state, and is not counted.
func (o *Oracle) Words() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cfg.Sketch.Words()
}

// NumVertices returns n, the vertex space queries range over.
func (o *Oracle) NumVertices() int { return o.cfg.N }

// Sketch returns the wrapped sketch. Mutating it directly bypasses the
// epoch; call Invalidate afterwards (or mutate through the oracle).
func (o *Oracle) Sketch() graphsketch.Sketch { return o.cfg.Sketch }

var (
	_ graphsketch.Sketch = (*Oracle)(nil)
	_ graphsketch.Oracle = (*Oracle)(nil)
)
