// Package mapdet is the mapdeterminism golden fixture: encode paths that
// range over maps are flagged, sorted or non-encode iteration is not.
package mapdet

import (
	"fmt"
	"io"
	"sort"
)

type Sketch struct {
	buckets map[string]int64
	order   []string
}

// WriteTo leaks map iteration order straight into the byte stream.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for k, v := range s.buckets { // want `range over map s\.buckets in encode path WriteTo`
		c, err := fmt.Fprintf(w, "%s=%d\n", k, v)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// encodeState is an encode helper by naming convention.
func encodeState(dst []byte, m map[uint64]uint64) []byte {
	for k, v := range m { // want `range over map m in encode path encodeState`
		dst = append(dst, byte(k), byte(v))
	}
	return dst
}

// MarshalBinary collects and sorts keys first; the collection loop is a
// documented false positive (order cannot reach the output).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	keys := make([]string, 0, len(s.buckets))
	//lint:ignore mapdeterminism keys are sorted before any byte is emitted
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = fmt.Appendf(out, "%s=%d\n", k, s.buckets[k])
	}
	return out, nil
}

// AppendBinary iterates a slice: deterministic, allowed.
func (s *Sketch) AppendBinary(b []byte) ([]byte, error) {
	for _, k := range s.order {
		b = fmt.Appendf(b, "%s=%d\n", k, s.buckets[k])
	}
	return b, nil
}

// State is a raw state encoder: its bytes become a checkpoint frame's
// interior, so map order would reach the wire.
func (s *Sketch) State() []byte {
	var b []byte
	for k, v := range s.buckets { // want `range over map s\.buckets in encode path State`
		b = fmt.Appendf(b, "%s=%d\n", k, v)
	}
	return b
}

// state is the unexported spelling of the same encoder.
func (s *Sketch) state() []byte {
	var b []byte
	for k := range s.buckets { // want `range over map s\.buckets in encode path state`
		b = append(b, k...)
	}
	return b
}

// VertexShare encodes one vertex's share for a share frame.
func (s *Sketch) VertexShare(v int) []byte {
	var b []byte
	for k, w := range s.buckets { // want `range over map s\.buckets in encode path VertexShare`
		b = fmt.Appendf(b, "%d:%s=%d\n", v, k, w)
	}
	return b
}

// total is not an encode path; map iteration is fine here.
func total(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}
