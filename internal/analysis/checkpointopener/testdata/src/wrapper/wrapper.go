// Package wrapper is the positive golden for the opener a wrapping sketch
// uses (internal/hybrid): the registered opener cannot reconstruct the
// wrapped inner from params alone, so it restores the inner from the frame
// embedded in the state and builds the wrapper around it in the same step.
// The &Sketch{...} literal inside the Register call's argument tree is what
// marks the type as registered — no diagnostic expected.
package wrapper

import (
	"bytes"
	"io"

	"gsvettest/codec"
)

// Sketch wraps an inner sketch behind an exact-buffer layer.
type Sketch struct {
	budget int
	inner  io.WriterTo
}

func (s *Sketch) WriteTo(w io.Writer) (int64, error)  { return 0, nil }
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) { return 0, nil }

func init() {
	codec.Register(codec.Tag(9), func(params, state []byte) (any, error) {
		// The inner comes from the state's embedded frame.
		return &Sketch{budget: len(params), inner: bytes.NewReader(state)}, nil
	})
}
