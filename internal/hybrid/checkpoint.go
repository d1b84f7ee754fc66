package hybrid

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
)

// Wire format. A hybrid checkpoint frame's params are two words — the
// exact-buffer budget and the inner sketch's own wire fingerprint — so the
// hybrid's identity commits to the inner's full construction (seed, domain,
// shape) without re-encoding it. The state carries everything params
// cannot reconstruct: the inner sketch's complete embedded checkpoint
// frame, the spill bitmap, and the per-vertex exact buffers. codec.Open on
// the embedded frame rebuilds the inner through its own registered opener,
// and the recorded fingerprint pins it: a state whose embedded frame
// disagrees with the params is rejected typed.

func (s *Sketch) wireParams() []byte {
	return codec.AppendUint64s(nil, uint64(s.budget), s.inner.Fingerprint())
}

// Fingerprint returns the sketch's wire identity (codec.Fingerprint over
// budget + inner fingerprint). Frames are exchangeable iff fingerprints
// agree, which transitively requires identically constructed inners.
func (s *Sketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagHybrid, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	return codec.WriteCheckpoint(w, codec.TagHybrid, s.wireParams(), s.state())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — on a fresh sketch this is an exact restore). The frame must
// carry this sketch's fingerprint; a frame from a differently-constructed
// hybrid (different budget or inner) fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	n, state, err := codec.ReadCheckpoint(r, codec.TagHybrid, s.Fingerprint())
	if err != nil {
		return n, err
	}
	return n, s.addState(state)
}

// state serializes the sketch contents: a length-prefixed embedded
// checkpoint frame of the inner sketch, the spill bitmap, then each
// unspilled vertex's sorted buffer. Unlike the other sketches' raw
// interiors this embeds the inner's full self-describing frame — the
// hybrid's own params (budget, inner fingerprint) cannot reconstruct the
// inner sketch, so the state must carry it.
func (s *Sketch) state() []byte {
	var inner bytes.Buffer
	if _, err := s.inner.WriteTo(&inner); err != nil {
		// Writes to a bytes.Buffer cannot fail; a checkpointable inner that
		// errors here is broken beyond what state can report.
		panic(fmt.Sprintf("hybrid: inner WriteTo failed: %v", err))
	}
	b := binary.LittleEndian.AppendUint64(nil, uint64(inner.Len()))
	b = append(b, inner.Bytes()...)
	n := len(s.spilled)
	for w := 0; w < (n+63)/64; w++ {
		var word uint64
		for bit := 0; bit < 64 && w*64+bit < n; bit++ {
			if s.spilled[w*64+bit] {
				word |= 1 << bit
			}
		}
		b = binary.LittleEndian.AppendUint64(b, word)
	}
	for v := 0; v < n; v++ {
		if s.spilled[v] {
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.keys[v])))
		for i, key := range s.keys[v] {
			b = binary.LittleEndian.AppendUint64(b, key)
			b = binary.LittleEndian.AppendUint64(b, uint64(s.ws[v][i]))
		}
	}
	return b
}

// addState merges a state produced by state on an identically constructed
// hybrid (linearly), resolving mixed exact/spilled vertices exactly as
// Merge does. Nothing is applied unless the whole state parses.
func (s *Sketch) addState(data []byte) error {
	in, rest, err := openInner(data)
	if err != nil {
		return err
	}
	if in.Fingerprint() != s.inner.Fingerprint() {
		return ErrInnerMismatch
	}
	spilled, keys, ws, err := parseExactState(rest, s.dom, s.maxEntries)
	if err != nil {
		return err
	}
	if err := s.mergeParts(spilled, keys, ws); err != nil {
		return err
	}
	// Fold the opened inner in by state, not by Merge: fingerprint equality
	// (checked above) is the canonical compatibility test, whereas Merge
	// compares raw in-memory configs, which may differ in defaulted fields
	// between a constructor-built inner and its wire-roundtripped twin.
	return s.inner.AddState(in.State())
}

// openInner opens the length-prefixed inner checkpoint frame at the front
// of a hybrid state and returns it with the bitmap+buffers tail.
func openInner(data []byte) (Inner, []byte, error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("hybrid: state of %d bytes: %w", len(data), codec.ErrTruncated)
	}
	flen := binary.LittleEndian.Uint64(data)
	rest := data[8:]
	if uint64(len(rest)) < flen {
		return nil, nil, fmt.Errorf("hybrid: inner frame length %d exceeds state: %w", flen, codec.ErrTruncated)
	}
	opened, err := codec.Open(bytes.NewReader(rest[:flen]))
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: embedded inner frame: %w", err)
	}
	in, ok := opened.(Inner)
	if !ok {
		return nil, nil, fmt.Errorf("hybrid: embedded frame decodes to %T, which cannot back a hybrid sketch: %w", opened, codec.ErrUnknownType)
	}
	return in, rest[flen:], nil
}

// parseExactState decodes and validates the bitmap+buffers tail of a
// hybrid state.
func parseExactState(b []byte, dom graph.Domain, maxEntries int) (spilled []bool, keys [][]uint64, ws [][]int64, err error) {
	n := dom.N()
	words := (n + 63) / 64
	if len(b) < 8*words {
		return nil, nil, nil, fmt.Errorf("hybrid: spill bitmap short: %w", codec.ErrTruncated)
	}
	spilled = make([]bool, n)
	for w := 0; w < words; w++ {
		word := binary.LittleEndian.Uint64(b[8*w:])
		hiBits := 64
		if w == words-1 && n%64 != 0 {
			hiBits = n % 64
		}
		if hiBits < 64 && word>>uint(hiBits) != 0 {
			return nil, nil, nil, fmt.Errorf("hybrid: spill bitmap has bits beyond vertex %d: %w", n, codec.ErrUnknownType)
		}
		for bit := 0; bit < hiBits; bit++ {
			spilled[w*64+bit] = word&(1<<bit) != 0
		}
	}
	b = b[8*words:]
	keys = make([][]uint64, n)
	ws = make([][]int64, n)
	for v := 0; v < n; v++ {
		if spilled[v] {
			continue
		}
		if len(b) < 4 {
			return nil, nil, nil, fmt.Errorf("hybrid: buffer of vertex %d missing: %w", v, codec.ErrTruncated)
		}
		cnt := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if cnt > maxEntries {
			return nil, nil, nil, fmt.Errorf("hybrid: vertex %d buffer of %d entries exceeds budget: %w", v, cnt, codec.ErrUnknownType)
		}
		if len(b) < 16*cnt {
			return nil, nil, nil, fmt.Errorf("hybrid: vertex %d buffer truncated: %w", v, codec.ErrTruncated)
		}
		if cnt == 0 {
			continue
		}
		ks := make([]uint64, cnt)
		vs := make([]int64, cnt)
		for i := 0; i < cnt; i++ {
			ks[i] = binary.LittleEndian.Uint64(b)
			vs[i] = int64(binary.LittleEndian.Uint64(b[8:]))
			b = b[16:]
			if i > 0 && ks[i] <= ks[i-1] {
				return nil, nil, nil, fmt.Errorf("hybrid: vertex %d buffer keys not strictly increasing: %w", v, codec.ErrUnknownType)
			}
			if vs[i] == 0 {
				return nil, nil, nil, fmt.Errorf("hybrid: vertex %d buffer holds a zero-weight entry: %w", v, codec.ErrUnknownType)
			}
			if e, err := dom.Decode(ks[i]); err != nil || !e.Contains(v) {
				return nil, nil, nil, fmt.Errorf("hybrid: vertex %d buffer key %d is not an edge at the vertex: %w", v, ks[i], codec.ErrUnknownType)
			}
		}
		keys[v], ws[v] = ks, vs
	}
	if len(b) != 0 {
		return nil, nil, nil, fmt.Errorf("hybrid: %d trailing state bytes: %w", len(b), codec.ErrUnknownType)
	}
	return spilled, keys, ws, nil
}

func init() {
	codec.Register(codec.TagHybrid, func(params, state []byte) (graphsketch.Sketch, error) {
		vs, rest, err := codec.ReadUint64s(params, 2)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("hybrid: params carry %d trailing bytes: %w", len(rest), codec.ErrUnknownType)
		}
		budget, err := codec.IntField(vs[0], "budget")
		if err != nil {
			return nil, err
		}
		if budget < 2 {
			return nil, fmt.Errorf("hybrid: budget of %d words cannot hold one entry: %w", budget, codec.ErrUnknownType)
		}
		in, rest, err := openInner(state)
		if err != nil {
			return nil, err
		}
		if in.Fingerprint() != vs[1] {
			return nil, fmt.Errorf("hybrid: embedded inner frame is %016x, params recorded %016x: %w",
				in.Fingerprint(), vs[1], codec.ErrFingerprint)
		}
		s, err := New(in, budget)
		if err != nil {
			return nil, err
		}
		if s.spilled, s.keys, s.ws, err = parseExactState(rest, s.dom, s.maxEntries); err != nil {
			return nil, err
		}
		return s, nil
	})
}
