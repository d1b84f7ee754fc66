package hybrid_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/sketch"
)

// fuzzHybrid builds a small populated hybrid over a spanning inner.
func fuzzHybrid(tb testing.TB) *hybrid.Sketch {
	tb.Helper()
	inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: 8, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	hy, err := hybrid.New(inner, 4)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		if err := hy.Update(graph.MustEdge(0, i), 1); err != nil {
			tb.Fatal(err)
		}
	}
	return hy
}

// checkpointParts writes hy's checkpoint frame and splits its payload into
// the params and state encodings.
func checkpointParts(tb testing.TB, hy *hybrid.Sketch) (params, state []byte) {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := hy.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	_, payload, _, err := codec.DecodeFrame(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	plen := binary.LittleEndian.Uint32(payload)
	return payload[4 : 4+plen], payload[4+plen:]
}

// FuzzHybridOpen feeds arbitrary state bytes, framed under the seed
// hybrid's real params, to both restore paths: codec.Open (the opener
// rebuilds the sketch from the frame) and ReadFrom on a live sketch.
// Neither may panic, every rejection is an error return, an opened sketch
// carries the frame's identity, and a rejected ReadFrom leaves the live
// sketch exactly as it was.
func FuzzHybridOpen(f *testing.F) {
	seedHy := fuzzHybrid(f)
	params, good := checkpointParts(f, seedHy)
	before := frameOf(f, seedHy)
	f.Add(good)
	f.Add([]byte(nil))
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0xFF))
	mut := append([]byte(nil), good...)
	mut[0] ^= 0x40 // corrupt the embedded inner frame length
	f.Add(mut)
	f.Fuzz(func(t *testing.T, state []byte) {
		frame := codec.AppendCheckpoint(nil, codec.TagHybrid, params, state)
		if s, err := codec.Open(bytes.NewReader(frame)); err == nil {
			hy, ok := s.(*hybrid.Sketch)
			if !ok {
				t.Fatalf("Open returned %T", s)
			}
			if hy.Fingerprint() != seedHy.Fingerprint() {
				t.Fatalf("opened fingerprint %016x, frame carries %016x", hy.Fingerprint(), seedHy.Fingerprint())
			}
			_ = frameOf(t, hy)
		}
		hy := fuzzHybrid(t)
		if _, err := hy.ReadFrom(bytes.NewReader(frame)); err != nil {
			if !bytes.Equal(frameOf(t, hy), before) {
				t.Fatalf("rejected ReadFrom (%v) changed the sketch", err)
			}
		} else {
			_ = frameOf(t, hy)
		}
	})
}

// TestHybridOpenChecksZeroInnerFingerprint pins the opener's identity
// check: a frame whose params record inner fingerprint 0 around a real
// inner frame must be refused, not opened as a sketch whose fingerprint
// differs from the frame header's.
func TestHybridOpenChecksZeroInnerFingerprint(t *testing.T) {
	_, state := checkpointParts(t, fuzzHybrid(t))
	frame := codec.AppendCheckpoint(nil, codec.TagHybrid, codec.AppendUint64s(nil, 4, 0), state)
	if s, err := codec.Open(bytes.NewReader(frame)); !errors.Is(err, codec.ErrFingerprint) {
		t.Fatalf("codec.Open = %T, %v; want codec.ErrFingerprint", s, err)
	}
}

// TestHybridRestoreRejectsForeignKey pins buffer validation: a buffered
// key must decode to an edge at its vertex. The seed hybrid spills vertex 0
// and buffers edge {0,v} at each v in 1..7; copying vertex 2's key into
// vertex 1's buffer must fail both restore paths, and the live sketch must
// be left as it was.
func TestHybridRestoreRejectsForeignKey(t *testing.T) {
	hy := fuzzHybrid(t)
	params, state := checkpointParts(t, hy)
	tail := state[8+binary.LittleEndian.Uint64(state):]
	const bitmap, entry = 8, 4 + 16 // one bitmap word; u32 count + one (key, weight)
	if !hy.Spilled(0) || hy.BufferLen(1) != 1 || hy.BufferLen(2) != 1 {
		t.Fatal("seed hybrid no longer has the layout this test edits")
	}
	copy(tail[bitmap+4:bitmap+12], tail[bitmap+entry+4:bitmap+entry+12])
	frame := codec.AppendCheckpoint(nil, codec.TagHybrid, params, state)
	if _, err := codec.Open(bytes.NewReader(frame)); !errors.Is(err, codec.ErrUnknownType) {
		t.Fatalf("codec.Open: got %v, want codec.ErrUnknownType", err)
	}
	before := frameOf(t, hy)
	if _, err := hy.ReadFrom(bytes.NewReader(frame)); !errors.Is(err, codec.ErrUnknownType) {
		t.Fatalf("ReadFrom: got %v, want codec.ErrUnknownType", err)
	}
	if !bytes.Equal(frameOf(t, hy), before) {
		t.Fatal("rejected ReadFrom changed the sketch")
	}
}
