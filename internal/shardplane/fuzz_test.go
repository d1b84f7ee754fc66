package shardplane

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
)

// FuzzWire feeds arbitrary payloads to the three session-payload parsers a
// shard or coordinator runs on bytes from the network. No input may panic;
// every rejection must be typed; an accepted hello or batch must re-encode
// byte-identically, so the parsers accept exactly the encoders' language.
func FuzzWire(f *testing.F) {
	hello := appendHello(nil, helloPayload{Shard: 2, Shards: 5, Lo: 12, Hi: 30, Ckpt: []byte{0xde, 0xad, 0xbe, 0xef}})
	batch := appendBatch(nil, []graph.WeightedEdge{
		{E: graph.MustEdge(0, 7), W: 1},
		{E: graph.Hyperedge{1, 4, 9}, W: -3},
		{E: graph.MustEdge(2, 3), W: 1 << 40},
	})
	for _, p := range [][]byte{hello, batch, appendAck(nil, nil), appendAck(nil, errors.New("sampler refused"))} {
		f.Add(p)
		for _, cut := range []int{1, 4, len(p) / 2, len(p) - 1} {
			if cut < len(p) {
				f.Add(p[:cut])
			}
		}
	}
	f.Add(appendBatch(nil, nil))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<31)) // a huge edge count with no edges
	f.Fuzz(func(t *testing.T, p []byte) {
		typed := func(what string, err error) {
			if !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s rejected with an untyped error: %v", what, err)
			}
		}
		if h, err := parseHello(p); err != nil {
			typed("hello", err)
		} else if re := appendHello(nil, h); !bytes.Equal(re, p) {
			t.Fatalf("accepted hello re-encodes as %x, want %x", re, p)
		}
		if b, err := parseBatch(nil, p); err != nil {
			typed("batch", err)
		} else if re := appendBatch(nil, b); !bytes.Equal(re, p) {
			t.Fatalf("accepted batch re-encodes as %x, want %x", re, p)
		}
		switch err := parseAck(p); {
		case len(p) < 4:
			if !errors.Is(err, codec.ErrTruncated) {
				t.Fatalf("short ack: got %v, want ErrTruncated", err)
			}
		case binary.LittleEndian.Uint32(p) == ackOK:
			if err != nil {
				t.Fatalf("ok ack parsed as %v", err)
			}
		case !errors.Is(err, ErrRemote):
			t.Fatalf("error ack: got %v, want ErrRemote", err)
		}
	})
}
