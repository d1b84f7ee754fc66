package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"graphsketch"
)

// Opener reconstructs a sketch from a checkpoint frame's params encoding
// and restores the frame's state into it, in one step; when it returns an
// error, Open discards the sketch. Each sketch package registers one per
// tag in an init function; the registry is what lets Open rebuild a sketch
// from a checkpoint frame alone without this package importing (and
// cycling with) the sketch packages.
type Opener func(params, state []byte) (graphsketch.Sketch, error)

var (
	regMu   sync.RWMutex
	openers = map[Tag]Opener{}
)

// Register installs the opener for a tag. It panics on duplicate
// registration — tags are wire format and each belongs to one package.
func Register(tag Tag, open Opener) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := openers[tag]; dup {
		panic(fmt.Sprintf("codec: duplicate registration for %v", tag))
	}
	openers[tag] = open
}

// RegisteredTags returns the tags with installed openers, sorted; the
// conformance tests use it to assert every structure participates.
func RegisteredTags() []Tag {
	regMu.RLock()
	defer regMu.RUnlock()
	tags := make([]Tag, 0, len(openers))
	//lint:ignore mapdeterminism collected tags are sorted before return; iteration order cannot reach the caller
	for t := range openers {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

func opener(tag Tag) Opener {
	regMu.RLock()
	defer regMu.RUnlock()
	return openers[tag]
}

// AppendCheckpoint frames params+state into a checkpoint envelope: the
// payload is the length-prefixed params encoding followed by the state
// bytes, and the header fingerprint commits to (tag, params).
func AppendCheckpoint(dst []byte, tag Tag, params, state []byte) []byte {
	payload := make([]byte, 0, 4+len(params)+len(state))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(params)))
	payload = append(payload, params...)
	payload = append(payload, state...)
	h := Header{Version: Version, Kind: KindCheckpoint, Tag: tag, Fingerprint: Fingerprint(tag, params)}
	return AppendFrame(dst, h, payload)
}

// WriteCheckpoint writes a checkpoint frame to w and records the write in
// the codec metrics. It is the single implementation behind every sketch's
// WriteTo method.
func WriteCheckpoint(w io.Writer, tag Tag, params, state []byte) (int64, error) {
	start := time.Now()
	buf := AppendCheckpoint(nil, tag, params, state)
	n, err := w.Write(buf)
	if err == nil {
		cdm.ckptWrites.Inc()
		cdm.ckptWriteBytes.Add(int64(n))
		cdm.ckptWriteSeconds.Observe(time.Since(start).Seconds())
	}
	return int64(n), err
}

// splitCheckpoint separates a checkpoint payload into params and state.
func splitCheckpoint(payload []byte) (params, state []byte, err error) {
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("codec: checkpoint payload of %d bytes: %w", len(payload), ErrTruncated)
	}
	plen := binary.LittleEndian.Uint32(payload)
	if uint64(len(payload)-4) < uint64(plen) {
		return nil, nil, fmt.Errorf("codec: params length %d exceeds payload: %w", plen, ErrTruncated)
	}
	return payload[4 : 4+plen], payload[4+plen:], nil
}

// AppendParts appends each part prefixed by its length as a big-endian
// uint64. It is the state layout of the composite sketches built from
// several same-package sub-sketches (the estimator's scales, the
// sparsifier's levels).
func AppendParts(dst []byte, parts ...[]byte) []byte {
	for _, p := range parts {
		dst = binary.BigEndian.AppendUint64(dst, uint64(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// SplitParts is the inverse of AppendParts: it splits b into exactly n
// length-prefixed parts and rejects truncated or trailing bytes.
func SplitParts(b []byte, n int) ([][]byte, error) {
	parts := make([][]byte, n)
	for i := range parts {
		if len(b) < 8 {
			return nil, fmt.Errorf("codec: state part %d of %d missing: %w", i, n, ErrTruncated)
		}
		plen := binary.BigEndian.Uint64(b)
		b = b[8:]
		if uint64(len(b)) < plen {
			return nil, fmt.Errorf("codec: state part %d length %d exceeds state: %w", i, plen, ErrTruncated)
		}
		parts[i], b = b[:plen], b[plen:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("codec: %d trailing state bytes after %d parts: %w", len(b), n, ErrUnknownType)
	}
	return parts, nil
}

// ReadCheckpoint reads a checkpoint frame from r for a receiver whose
// identity is (wantTag, wantFP), verifying the frame matches before
// returning the state bytes: the typed replacement for "restore onto an
// identically-built instance and hope". It backs every sketch's ReadFrom.
func ReadCheckpoint(r io.Reader, wantTag Tag, wantFP uint64) (n int64, state []byte, err error) {
	start := time.Now()
	h, payload, n, err := ReadFrame(r)
	if err != nil {
		cdm.reject(err)
		return n, nil, err
	}
	if h.Kind != KindCheckpoint {
		err = fmt.Errorf("codec: expected a checkpoint frame, got kind %d: %w", h.Kind, ErrUnknownType)
		cdm.reject(err)
		return n, nil, err
	}
	params, state, err := splitCheckpoint(payload)
	if err != nil {
		cdm.reject(err)
		return n, nil, err
	}
	if h.Tag != wantTag || h.Fingerprint != wantFP || Fingerprint(h.Tag, params) != h.Fingerprint {
		err = fmt.Errorf("codec: frame is %v/%016x, receiver is %v/%016x: %w",
			h.Tag, h.Fingerprint, wantTag, wantFP, ErrFingerprint)
		cdm.reject(err)
		return n, nil, err
	}
	cdm.ckptReads.Inc()
	cdm.ckptReadBytes.Add(n)
	cdm.ckptReadSeconds.Observe(time.Since(start).Seconds())
	return n, state, nil
}

// Open reads one checkpoint frame from r, reconstructs the sketch it
// describes from the embedded params and state via the registered opener,
// and returns the live sketch. This is the from-cold restore path: nothing
// about the sketch needs to be known in advance — the frame is
// self-describing. Decode failures are the package sentinels; opener
// errors (e.g. params that fail constructor validation) are returned
// wrapped.
func Open(r io.Reader) (graphsketch.Sketch, error) {
	start := time.Now()
	h, payload, n, err := ReadFrame(r)
	if err != nil {
		cdm.reject(err)
		return nil, err
	}
	if h.Kind != KindCheckpoint {
		err = fmt.Errorf("codec: Open wants a checkpoint frame, got kind %d: %w", h.Kind, ErrUnknownType)
		cdm.reject(err)
		return nil, err
	}
	params, state, err := splitCheckpoint(payload)
	if err != nil {
		cdm.reject(err)
		return nil, err
	}
	if Fingerprint(h.Tag, params) != h.Fingerprint {
		cdm.reject(ErrFingerprint)
		return nil, fmt.Errorf("codec: header fingerprint does not match embedded params: %w", ErrFingerprint)
	}
	open := opener(h.Tag)
	if open == nil {
		err = fmt.Errorf("codec: no decoder registered for %v: %w", h.Tag, ErrUnknownType)
		cdm.reject(err)
		return nil, err
	}
	s, err := open(params, state)
	if err != nil {
		cdm.reject(err)
		return nil, fmt.Errorf("codec: opening %v: %w", h.Tag, err)
	}
	cdm.ckptReads.Inc()
	cdm.ckptReadBytes.Add(n)
	cdm.ckptReadSeconds.Observe(time.Since(start).Seconds())
	return s, nil
}

// AppendShareFrame frames one vertex's raw interior share for transport:
// payload is the vertex index followed by the interior bytes, fingerprinted
// with the sender's identity so a mismatched receiver rejects it typed.
func AppendShareFrame(dst []byte, tag Tag, fp uint64, v int, interior []byte) []byte {
	payload := make([]byte, 0, 4+len(interior))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(v))
	payload = append(payload, interior...)
	h := Header{Version: Version, Kind: KindShare, Tag: tag, Fingerprint: fp}
	cdm.shareFrames.Inc()
	return AppendFrame(dst, h, payload)
}

// DecodeShareFrame reads a share frame from the front of b for a receiver
// whose identity is (wantTag, wantFP) and returns the vertex, the interior
// share bytes, and any remaining bytes. A frame from a sketch with
// different parameters, profile, or seed fails with ErrFingerprint instead
// of decoding to garbage.
func DecodeShareFrame(b []byte, wantTag Tag, wantFP uint64) (v int, interior, rest []byte, err error) {
	h, payload, rest, err := DecodeFrame(b)
	if err != nil {
		cdm.reject(err)
		return 0, nil, nil, err
	}
	if h.Kind != KindShare {
		err = fmt.Errorf("codec: expected a share frame, got kind %d: %w", h.Kind, ErrUnknownType)
		cdm.reject(err)
		return 0, nil, nil, err
	}
	if h.Tag != wantTag || h.Fingerprint != wantFP {
		err = fmt.Errorf("codec: share is %v/%016x, receiver is %v/%016x: %w",
			h.Tag, h.Fingerprint, wantTag, wantFP, ErrFingerprint)
		cdm.reject(err)
		return 0, nil, nil, err
	}
	if len(payload) < 4 {
		err = fmt.Errorf("codec: share payload of %d bytes: %w", len(payload), ErrTruncated)
		cdm.reject(err)
		return 0, nil, nil, err
	}
	return int(binary.LittleEndian.Uint32(payload)), payload[4:], rest, nil
}
