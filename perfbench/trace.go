package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/shardplane"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer started; Op is the batch or query id the
// span belongs to (shard spans carry their range's low vertex instead).
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Op       int64  `json:"op"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that returns span id 0.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	// cur is the id of the span that wrapper spans (shards, transport,
	// decode) hang under: the client sets it before each call.
	cur atomic.Int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Workload: t.workload, Name: name, ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Start: now})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) setCur(id int64) {
	if t != nil {
		t.cur.Store(id)
	}
}

func (t *tracer) curID() int64 {
	if t == nil {
		return 0
	}
	return t.cur.Load()
}

// named returns the spans called name whose parent is parent (any parent
// when parent < 0).
func (t *tracer) named(name string, parent int64) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (parent < 0 || s.Parent == parent) {
			out = append(out, s)
		}
	}
	return out
}

// under returns the spans called name whose parent is one of parents.
func (t *tracer) under(name string, parents []span) []span {
	ids := make(map[int64]bool, len(parents))
	for _, p := range parents {
		ids[p.ID] = true
	}
	var out []span
	for _, s := range t.spans {
		if s.Name == name && ids[s.Parent] {
			out = append(out, s)
		}
	}
	return out
}

func durationsMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

func total(ss []span) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

// covered returns how much of each span in parents its children (spans
// whose Parent is the span's id) cover, summed over parents. Children may
// overlap, as parallel shards do; overlapping time counts once.
func (t *tracer) covered(parents []span) time.Duration {
	kids := t.children()
	var d time.Duration
	for _, p := range parents {
		d += unionWithin(kids[p.ID], p.Start, p.End)
	}
	return d
}

// children maps each span id to its children's intervals.
func (t *tracer) children() map[int64][][2]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	return kids
}

func unionWithin(iv [][2]int64, lo, hi int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var d, reach int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], reach), min(x[1], hi)
		if e > s {
			d += e - s
			reach = e
		}
	}
	return time.Duration(d)
}

// selfTimes sums each span name's self time: its duration minus the part
// its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	kids := t.children()
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += ms(s.dur() - unionWithin(kids[s.ID], s.Start, s.End))
	}
	return out
}

// writeSpans appends every span of every tracer to path as JSON lines.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSharded times every shard's UpdateBatchRange call from outside the
// engine: the local shard plane calls it once per shard per batch, from
// the shard's own goroutine.
type timedSharded struct {
	graphsketch.Sharded
	tr *tracer
}

func (s timedSharded) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	id := s.tr.begin("shard.UpdateBatchRange", s.tr.curID(), int64(lo))
	defer s.tr.end(id)
	return s.Sharded.UpdateBatchRange(batch, lo, hi)
}

// timedTransport times Route and Gather on a shard-plane transport and
// attributes the wire bytes counted meanwhile to each.
type timedTransport struct {
	shardplane.Transport
	tr          *tracer
	wire        *byteCounter
	routeBytes  int64
	routed      int64
	gatherBytes []float64
}

func (t *timedTransport) Route(batch []graph.WeightedEdge) error {
	id := t.tr.begin("transport.Route", t.tr.curID(), int64(len(batch)))
	before := t.wire.total()
	err := t.Transport.Route(batch)
	t.routeBytes += t.wire.total() - before
	t.routed += int64(len(batch))
	t.tr.end(id)
	return err
}

func (t *timedTransport) Gather(dst graphsketch.Sketch) error {
	id := t.tr.begin("transport.Gather", t.tr.curID(), 0)
	before := t.wire.total()
	err := t.Transport.Gather(dst)
	t.gatherBytes = append(t.gatherBytes, float64(t.wire.total()-before))
	t.tr.end(id)
	return err
}

// byteCounter counts the bytes shard servers read and write.
type byteCounter struct{ rx, tx atomic.Int64 }

func (c *byteCounter) total() int64 { return c.rx.Load() + c.tx.Load() }

// countingListener hands out connections that count their traffic.
type countingListener struct {
	net.Listener
	c *byteCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *byteCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.rx.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.tx.Add(int64(n))
	return n, err
}
