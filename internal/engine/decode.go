package engine

import (
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
)

// DecodeHybridTraced forwards to h.Decode, the one hybrid decode. It
// remains only because the end-to-end benchmark module (perfbench/) calls
// it by this name; new code calls h.Decode or oracle.Decode.
func DecodeHybridTraced(h *hybrid.Sketch, parent *obs.Span) (*graph.Hypergraph, error) {
	return h.Decode(parent)
}
