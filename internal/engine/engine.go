// Package engine is the ingestion policy layer over the shard plane
// (internal/shardplane): batching, stream consumption, and the ForEach
// decode fan-out. The shard routing itself — worker pools, vertex-range
// partitioning, skew metrics, and the TCP cluster transport — lives in
// shardplane; an Engine is a thin graphsketch.Updater/stream.Sink adapter
// over any Transport, so the same ingest loop drives an in-process pool
// and a gsd cluster.
package engine

import (
	"sync"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/stream"
)

// ErrClosed is returned by updates submitted after Close. It is the shard
// plane's closed sentinel: an engine is closed exactly when its transport
// is.
var ErrClosed = shardplane.ErrClosed

// DefaultBatchSize is the number of stream updates Consume groups into one
// parallel dispatch when the caller passes batchSize <= 0. Large enough to
// amortize the fan-out/fan-in handshake, small enough to keep batches in
// cache.
const DefaultBatchSize = 1024

// Options configures an Engine.
type Options struct {
	// Workers is the number of ingestion workers (vertex shards). 0 means
	// GOMAXPROCS; the count is capped at the sketch's vertex count.
	Workers int
}

// Engine feeds a sketch through a shardplane.Transport. UpdateBatch blocks
// until the batch is fully applied, so the engine is a drop-in
// stream.Sink: calls never overlap, and decoding between calls is safe.
//
// The engine must be released with Close once ingestion is done. Close is
// idempotent and safe to call concurrently with itself and with in-flight
// updates: it waits for the running batch and later updates return
// ErrClosed.
type Engine struct {
	tr shardplane.Transport

	// mu guards the single-update scratch; batch serialization itself is
	// the transport's job.
	mu  sync.Mutex
	one [1]graph.WeightedEdge
}

// New returns an engine over target with opt.Workers goroutine shards —
// the in-process configuration (shardplane.LocalTransport). The shard
// boundaries are fixed for the engine's lifetime: worker w owns vertices
// [bounds[w], bounds[w+1]).
func New(target graphsketch.Sharded, opt Options) *Engine {
	return NewWithTransport(shardplane.NewLocal(target, shardplane.Options{Shards: opt.Workers}))
}

// NewWithTransport returns an engine over an existing transport — the way
// a gsd coordinator drives a TCP cluster with the same Consume loop the
// local pool uses. The engine takes ownership: Close closes the transport.
func NewWithTransport(tr shardplane.Transport) *Engine {
	return &Engine{tr: tr}
}

// Transport exposes the engine's shard plane, for gathers and shard
// introspection.
func (e *Engine) Transport() shardplane.Transport { return e.tr }

// Workers returns the number of shards the engine routes over.
func (e *Engine) Workers() int { return e.tr.Shards() }

// UpdateBatch applies the batch through the shard plane and blocks until
// every shard has finished. On error the sketch state is unspecified (each
// shard stops at its first failing edge); the first error by shard index
// is returned. Concurrent calls are applied one batch at a time; after
// Close every call returns ErrClosed.
func (e *Engine) UpdateBatch(batch []graph.WeightedEdge) error {
	if len(batch) == 0 {
		return nil
	}
	if err := e.tr.Route(batch); err != nil {
		return err
	}
	if em.batches != nil {
		em.batches.Inc()
		em.updates.Add(int64(len(batch)))
	}
	return nil
}

// Update applies a single weighted update through the plane, so the
// single-writer-per-vertex invariant holds even when Update and UpdateBatch
// calls are mixed. For high-rate streams prefer UpdateBatch or Consume.
func (e *Engine) Update(ed graph.Hyperedge, delta int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.one[0] = graph.WeightedEdge{E: ed, W: delta}
	return e.UpdateBatch(e.one[:])
}

// Consume feeds an entire stream through the plane in batches of batchSize
// (<= 0 means DefaultBatchSize). Consumed update and deletion counts feed
// the stream ingestion counters (updates/sec and the deletions fraction
// are derived by the scraper).
func (e *Engine) Consume(st stream.Stream, batchSize int) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	buf := make([]graph.WeightedEdge, 0, batchSize)
	dels := 0
	for _, u := range st {
		if u.Op == stream.Delete {
			dels++
		}
		buf = append(buf, graph.WeightedEdge{E: u.Edge, W: int64(u.Op)})
		if len(buf) == batchSize {
			if err := e.UpdateBatch(buf); err != nil {
				return err
			}
			stream.Record(len(buf)-dels, dels)
			buf, dels = buf[:0], 0
		}
	}
	if err := e.UpdateBatch(buf); err != nil {
		return err
	}
	stream.Record(len(buf)-dels, dels)
	return nil
}

// Close shuts the transport down and waits for its shards to exit. It is
// idempotent and safe to call concurrently with in-flight updates: the
// running batch completes first, and later updates return ErrClosed.
func (e *Engine) Close() {
	e.tr.Close()
}

var _ stream.Sink = (*Engine)(nil)
var _ graphsketch.Updater = (*Engine)(nil)
