package oracle

import (
	"bytes"
	"fmt"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
	"graphsketch/internal/shardplane"
)

// ForCoordinator serves queries from a shard plane instead of a local
// sketch: mutations route through the transport to the shards, and a
// dirty-epoch rebuild gathers the shards' state into a fresh sketch and
// decodes it. proto is the plane's construction template (the same fresh
// prototype the transport was dialed with); its checkpoint frame is
// captured once and codec.Open reconstructs a pristine gather destination
// per rebuild, so repeated rebuilds never double-merge shard state.
//
// The usual oracle epoch contract applies unchanged: Connected/
// DisconnectedBy hit the cached snapshot while the epoch matches, and the
// single-flight rebuild pays one gather + decode per dirty epoch — which
// over a TCP plane is one checkpoint pull per shard, the cluster analogue
// of one local decode.
func ForCoordinator(tr shardplane.Transport, proto shardplane.Member) (*Oracle, error) {
	var buf bytes.Buffer
	if _, err := proto.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("oracle: checkpointing coordinator prototype: %w", err)
	}
	frame := buf.Bytes()
	// Fail at construction, not first query, if the prototype's type has
	// no decode route.
	probe, err := codec.Open(bytes.NewReader(frame))
	if err != nil {
		return nil, fmt.Errorf("oracle: reopening coordinator prototype: %w", err)
	}
	r, err := routeFor(probe)
	if err != nil {
		return nil, err
	}
	return New(Config{
		Sketch: &transportSketch{tr: tr},
		N:      r.n,
		Decode: func(sp *obs.Span) (*graph.Hypergraph, error) {
			fresh, err := codec.Open(bytes.NewReader(frame))
			if err != nil {
				return nil, fmt.Errorf("oracle: opening gather destination: %w", err)
			}
			if err := tr.Gather(fresh); err != nil {
				return nil, fmt.Errorf("oracle: gathering shards: %w", err)
			}
			return Decode(fresh, sp)
		},
		MaxRemove: r.maxRemove,
	})
}

// transportSketch adapts a shardplane.Transport to the mutation surface
// Config.Sketch requires: updates route to the shards (and, via the
// oracle, advance the epoch). The state lives on the shards, so the local
// serialization surface is intentionally inert — merging or restoring a
// coordinator proxy would silently bypass the plane.
type transportSketch struct {
	tr shardplane.Transport

	// one is Update's single-edge scratch; the oracle serializes mutations
	// under its rebuild lock, so no extra locking is needed here.
	one [1]graph.WeightedEdge
}

func (t *transportSketch) Update(e graph.Hyperedge, delta int64) error {
	t.one[0] = graph.WeightedEdge{E: e, W: delta}
	return t.tr.Route(t.one[:])
}

func (t *transportSketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return t.tr.Route(batch)
}

func (t *transportSketch) Merge(o graphsketch.Sketch) error {
	return fmt.Errorf("oracle: coordinator proxy cannot merge: %w", graphsketch.ErrMergeMismatch)
}

func (t *transportSketch) Words() int { return 0 }

func (t *transportSketch) Marshal() []byte { return nil }

func (t *transportSketch) Unmarshal(data []byte) error {
	return fmt.Errorf("oracle: coordinator proxy holds no local state to restore: %w", ErrCoordinatorProxy)
}
