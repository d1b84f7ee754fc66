// Checkpoint conformance harness: every Sketch implementation must survive
// the interrupted-run drill — ingest half a dynamic stream, checkpoint
// through the versioned wire format, reconstruct from the frame alone
// (codec.Open, no out-of-band construction), finish the stream, and land on
// byte-identical state versus an uninterrupted run. The same table drives
// the cross-construction rejection check: a Lean-profile frame presented to
// a Balanced-profile reader, or a frame from a sketch with another seed,
// must fail with codec.ErrFingerprint, never merge.
package graphsketch_test

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/plan"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// checkpointCases builds each of the eight implementations under a given
// profile and seed; two builds that differ in either are exactly what the
// identity fingerprint must distinguish. The hybrid case varies both its
// own budget and the wrapped inner's profile, so its fingerprint must
// reject a mismatch at either layer.
var checkpointCases = []struct {
	name  string
	build func(t *testing.T, n int, prof plan.Profile, seed uint64) graphsketch.Checkpointer
}{
	{"spanning", func(t *testing.T, n int, prof plan.Profile, seed uint64) graphsketch.Checkpointer {
		s, err := sketch.NewSpanningSketch(sketch.SpanningParams{
			N: n, Rounds: plan.Spanning(n, prof).Rounds,
			Sampler: plan.Spanning(n, prof).Sampler, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"skeleton", func(t *testing.T, n int, prof plan.Profile, seed uint64) graphsketch.Checkpointer {
		s, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
			N: n, K: 2, Spanning: plan.Spanning(n, prof), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"edgeconn", func(t *testing.T, n int, prof plan.Profile, seed uint64) graphsketch.Checkpointer {
		s, err := edgeconn.New(edgeconn.Params{
			N: n, K: 3, Spanning: plan.Spanning(n, prof), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"vertexconn", func(t *testing.T, n int, prof plan.Profile, seed uint64) graphsketch.Checkpointer {
		s, err := vertexconn.New(plan.VertexConnQuery(n, 2, 2, seed, prof))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"estimator", func(t *testing.T, n int, prof plan.Profile, seed uint64) graphsketch.Checkpointer {
		per := 24
		if prof == plan.Lean {
			per = 12
		}
		e, err := vertexconn.NewEstimator(vertexconn.EstimatorParams{
			N: n, KMax: 4, Seed: seed,
			SubgraphsAt: func(k int) int { return per * k },
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"reconstruct", func(t *testing.T, n int, prof plan.Profile, seed uint64) graphsketch.Checkpointer {
		s, err := reconstruct.New(reconstruct.Params{
			N: n, K: 2, Spanning: plan.Spanning(n, prof), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"sparsify", func(t *testing.T, n int, prof plan.Profile, seed uint64) graphsketch.Checkpointer {
		s, err := sparsify.New(plan.Sparsify(n, 2, 0.5, seed, prof))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"hybrid", func(t *testing.T, n int, prof plan.Profile, seed uint64) graphsketch.Checkpointer {
		inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{
			N: n, Rounds: plan.Spanning(n, prof).Rounds,
			Sampler: plan.Spanning(n, prof).Sampler, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		budget := 8
		if prof == plan.Lean {
			budget = 4
		}
		h, err := hybrid.New(inner, budget)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}},
}

// ckptSeed is the seed every conformance build uses unless a row varies it.
const ckptSeed = 7

// checkpointStream is a shared dynamic graph stream with churn (inserts and
// deletes on both sides of the cut point).
func checkpointStream(n int) stream.Stream {
	rng := rand.New(rand.NewPCG(0xc4e7, 0x9001))
	final := workload.ErdosRenyi(rng, n, 0.35)
	churn := workload.ErdosRenyi(rng, n, 0.3)
	return stream.WithChurn(final, churn, rng)
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	const n = 12
	st := checkpointStream(n)
	half := len(st) / 2
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference run.
			full := tc.build(t, n, plan.Balanced, ckptSeed)
			if err := stream.Apply(st, full); err != nil {
				t.Fatal(err)
			}
			// Interrupted run: half the stream, then a framed checkpoint.
			first := tc.build(t, n, plan.Balanced, ckptSeed)
			if err := stream.Apply(st[:half], first); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			wrote, err := first.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if wrote != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", wrote, buf.Len())
			}
			// Restart: the frame alone reconstructs the sketch — no
			// out-of-band parameters.
			resumed, err := codec.Open(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := stream.Apply(st[half:], resumed); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frameOf(t, resumed), frameOf(t, full)) {
				t.Fatal("resumed state differs from uninterrupted run")
			}
		})
	}
}

func TestCheckpointReadFromResume(t *testing.T) {
	// Same drill through the typed path: ReadFrom on a freshly constructed
	// sketch (params from "flags") instead of codec.Open.
	const n = 12
	st := checkpointStream(n)
	half := len(st) / 2
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			full := tc.build(t, n, plan.Balanced, ckptSeed)
			if err := stream.Apply(st, full); err != nil {
				t.Fatal(err)
			}
			first := tc.build(t, n, plan.Balanced, ckptSeed)
			if err := stream.Apply(st[:half], first); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := first.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			resumed := tc.build(t, n, plan.Balanced, ckptSeed)
			if _, err := resumed.ReadFrom(&buf); err != nil {
				t.Fatal(err)
			}
			if err := stream.Apply(st[half:], resumed); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frameOf(t, resumed), frameOf(t, full)) {
				t.Fatal("resumed state differs from uninterrupted run")
			}
		})
	}
}

func TestCheckpointRejectsCrossConstruction(t *testing.T) {
	// A frame presented to a differently-constructed reader must be refused
	// with the typed fingerprint error for every implementation: same seed
	// with different parameters, and same parameters with a different seed.
	// Both are the silent-garbage cases a raw state merge cannot detect.
	const n = 12
	st := checkpointStream(n)
	rows := []struct {
		name     string
		prof     plan.Profile
		seed     uint64
		readProf plan.Profile
		readSeed uint64
	}{
		{"profile", plan.Lean, ckptSeed, plan.Balanced, ckptSeed},
		{"seed", plan.Balanced, ckptSeed + 1, plan.Balanced, ckptSeed},
	}
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					src := tc.build(t, n, row.prof, row.seed)
					if err := stream.Apply(st[:len(st)/2], src); err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if _, err := src.WriteTo(&buf); err != nil {
						t.Fatal(err)
					}
					reader := tc.build(t, n, row.readProf, row.readSeed)
					if _, err := reader.ReadFrom(&buf); !errors.Is(err, codec.ErrFingerprint) {
						t.Fatalf("cross-%s ReadFrom: got %v, want codec.ErrFingerprint", row.name, err)
					}
				})
			}
		})
	}
}

func TestCheckpointDeterministic(t *testing.T) {
	// Byte determinism is the codec's bedrock contract: the frame carries a
	// fingerprint and CRC over bytes that must come out identical on every
	// encode of the same state (the mapdeterminism analyzer guards the same
	// invariant statically). Two WriteTo calls on one live, half-ingested
	// sketch must agree byte for byte, for all eight implementations.
	const n = 12
	st := checkpointStream(n)
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t, n, plan.Balanced, ckptSeed)
			if err := stream.Apply(st[:len(st)/2], s); err != nil {
				t.Fatal(err)
			}
			var first, second bytes.Buffer
			if _, err := s.WriteTo(&first); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteTo(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("two WriteTo calls on the same sketch differ: %d vs %d bytes",
					first.Len(), second.Len())
			}
		})
	}
}

// frameOf returns s's checkpoint frame. Two sketches of one construction
// have equal frames exactly when their states are equal.
func frameOf(t *testing.T, s graphsketch.Sketch) []byte {
	t.Helper()
	c, ok := s.(graphsketch.Checkpointer)
	if !ok {
		t.Fatalf("%T cannot checkpoint", s)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
