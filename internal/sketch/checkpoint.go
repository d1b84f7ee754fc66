package sketch

import (
	"fmt"
	"io"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/l0"
)

// This file wires the spanning and skeleton sketches into the versioned wire
// format (internal/codec): canonical params encodings, identity
// fingerprints, WriteTo/ReadFrom checkpointing, framed vertex shares, and
// the openers codec.Open uses to rebuild and restore a sketch from a frame
// alone.

// WireConfig returns the fully-defaulted configuration as the wire format
// sees it: Rounds resolved against n and the sampler config resolved against
// the domain size. Two sketches that behave identically — regardless of
// which optional fields their constructors spelled out — have equal
// WireConfigs, which is what makes fingerprints canonical.
func (s *SpanningSketch) WireConfig() SpanningConfig {
	return SpanningConfig{Rounds: s.cfg.Rounds, Sampler: s.samplers[0][0].Config()}
}

func (s *SpanningSketch) wireParams() []byte {
	b := codec.AppendUint64s(nil, uint64(s.dom.N()), uint64(s.dom.R()))
	b = AppendWireConfig(b, s.WireConfig())
	return codec.AppendUint64s(b, s.seed)
}

// Fingerprint returns the sketch's wire identity (codec.Fingerprint over the
// canonical params, seed included). Frames are exchangeable iff fingerprints
// agree.
func (s *SpanningSketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagSpanning, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (s *SpanningSketch) WriteTo(w io.Writer) (int64, error) {
	return codec.WriteCheckpoint(w, codec.TagSpanning, s.wireParams(), s.State())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — on a fresh sketch this is an exact restore). The frame must
// carry this sketch's fingerprint; a frame from a differently-constructed
// sketch fails with codec.ErrFingerprint.
func (s *SpanningSketch) ReadFrom(r io.Reader) (int64, error) {
	n, state, err := codec.ReadCheckpoint(r, codec.TagSpanning, s.Fingerprint())
	if err != nil {
		return n, err
	}
	return n, s.AddState(state)
}

// VertexShareFrame frames vertex v's share for transport: the raw share
// (VertexShare) becomes the interior of a codec share frame carrying the
// sketch's fingerprint.
func (s *SpanningSketch) VertexShareFrame(v int) []byte {
	return codec.AppendShareFrame(nil, codec.TagSpanning, s.Fingerprint(), v, s.VertexShare(v))
}

// AddVertexShareFrame verifies and merges one framed vertex share from the
// front of data, returning the remaining bytes.
func (s *SpanningSketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	v, interior, rest, err := codec.DecodeShareFrame(data, codec.TagSpanning, s.Fingerprint())
	if err != nil {
		return nil, err
	}
	return rest, s.AddVertexShare(v, interior)
}

// WireConfig returns the per-layer spanning configuration as the wire format
// sees it (fully defaulted); see SpanningSketch.WireConfig.
func (s *SkeletonSketch) WireConfig() SpanningConfig { return s.layers[0].WireConfig() }

func (s *SkeletonSketch) wireParams() []byte {
	b := codec.AppendUint64s(nil, uint64(s.dom.N()), uint64(s.dom.R()), uint64(s.k))
	b = AppendWireConfig(b, s.WireConfig())
	return codec.AppendUint64s(b, s.seed)
}

// Fingerprint returns the sketch's wire identity.
func (s *SkeletonSketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagSkeleton, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (s *SkeletonSketch) WriteTo(w io.Writer) (int64, error) {
	return codec.WriteCheckpoint(w, codec.TagSkeleton, s.wireParams(), s.State())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch;
// see SpanningSketch.ReadFrom for the contract.
func (s *SkeletonSketch) ReadFrom(r io.Reader) (int64, error) {
	n, state, err := codec.ReadCheckpoint(r, codec.TagSkeleton, s.Fingerprint())
	if err != nil {
		return n, err
	}
	return n, s.AddState(state)
}

// VertexShareFrame frames vertex v's share across all layers.
func (s *SkeletonSketch) VertexShareFrame(v int) []byte {
	return codec.AppendShareFrame(nil, codec.TagSkeleton, s.Fingerprint(), v, s.VertexShare(v))
}

// AddVertexShareFrame verifies and merges one framed skeleton share from the
// front of data, returning the remaining bytes.
func (s *SkeletonSketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	v, interior, rest, err := codec.DecodeShareFrame(data, codec.TagSkeleton, s.Fingerprint())
	if err != nil {
		return nil, err
	}
	return rest, s.AddVertexShare(v, interior)
}

// AppendWireConfig appends a SpanningConfig's five wire words (rounds plus
// the four sampler-shape fields). Callers pass a WireConfig (fully
// defaulted) so the encoding is canonical. The core packages embed this in
// their own params encodings.
func AppendWireConfig(dst []byte, cfg SpanningConfig) []byte {
	return codec.AppendUint64s(dst,
		uint64(cfg.Rounds),
		uint64(cfg.Sampler.S), uint64(cfg.Sampler.Rows),
		uint64(cfg.Sampler.BucketsPerS), uint64(cfg.Sampler.MaxLevels))
}

// ReadWireConfig decodes the five words written by AppendWireConfig,
// validating each as a sane dimension.
func ReadWireConfig(vs []uint64) (SpanningConfig, error) {
	var cfg SpanningConfig
	var err error
	if cfg.Rounds, err = codec.IntField(vs[0], "rounds"); err != nil {
		return cfg, err
	}
	sampler, err := samplerConfig(vs[1:5])
	if err != nil {
		return cfg, err
	}
	cfg.Sampler = sampler
	return cfg, nil
}

// WireConfigWords is the number of uint64 words AppendWireConfig emits.
const WireConfigWords = 5

// samplerConfig decodes the four l0.Config words every params encoding in
// this package embeds.
func samplerConfig(vs []uint64) (l0.Config, error) {
	var cfg l0.Config
	var err error
	if cfg.S, err = codec.IntField(vs[0], "sampler.s"); err != nil {
		return cfg, err
	}
	if cfg.Rows, err = codec.IntField(vs[1], "sampler.rows"); err != nil {
		return cfg, err
	}
	if cfg.BucketsPerS, err = codec.IntField(vs[2], "sampler.buckets_per_s"); err != nil {
		return cfg, err
	}
	if cfg.MaxLevels, err = codec.IntField(vs[3], "sampler.max_levels"); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func paramsLenError(tag codec.Tag, rest []byte) error {
	return fmt.Errorf("sketch: %v params carry %d trailing bytes: %w", tag, len(rest), codec.ErrUnknownType)
}

func init() {
	codec.Register(codec.TagSpanning, func(params, state []byte) (graphsketch.Sketch, error) {
		vs, rest, err := codec.ReadUint64s(params, 8)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, paramsLenError(codec.TagSpanning, rest)
		}
		n, err := codec.IntField(vs[0], "n")
		if err != nil {
			return nil, err
		}
		r, err := codec.IntField(vs[1], "r")
		if err != nil {
			return nil, err
		}
		cfg, err := ReadWireConfig(vs[2:7])
		if err != nil {
			return nil, err
		}
		s, err := NewSpanningSketch(SpanningParams{N: n, R: r, Rounds: cfg.Rounds, Sampler: cfg.Sampler, Seed: vs[7]})
		if err != nil {
			return nil, err
		}
		return s, s.AddState(state)
	})
	codec.Register(codec.TagSkeleton, func(params, state []byte) (graphsketch.Sketch, error) {
		vs, rest, err := codec.ReadUint64s(params, 9)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, paramsLenError(codec.TagSkeleton, rest)
		}
		n, err := codec.IntField(vs[0], "n")
		if err != nil {
			return nil, err
		}
		r, err := codec.IntField(vs[1], "r")
		if err != nil {
			return nil, err
		}
		k, err := codec.IntField(vs[2], "k")
		if err != nil {
			return nil, err
		}
		cfg, err := ReadWireConfig(vs[3:8])
		if err != nil {
			return nil, err
		}
		s, err := NewSkeletonSketch(SkeletonParams{N: n, R: r, K: k, Spanning: cfg, Seed: vs[8]})
		if err != nil {
			return nil, err
		}
		return s, s.AddState(state)
	})
}

var (
	_ graphsketch.Checkpointer = (*SpanningSketch)(nil)
	_ graphsketch.Checkpointer = (*SkeletonSketch)(nil)
)
