package sketch

// State serializes the sketch's full contents — every vertex's share in
// order. It is the raw interior of a checkpoint frame: the seed, domain,
// and config are the structure's identity and are not in it; WriteTo frames
// the state with them, and codec.Open and ReadFrom check them before
// AddState runs. Composite sketches in other packages build their own state
// from it.
func (s *SpanningSketch) State() []byte {
	var b []byte
	for v := 0; v < s.dom.N(); v++ {
		b = append(b, s.VertexShare(v)...)
	}
	return b
}

// AddState merges a serialized state into the sketch (linearly). The state
// must come from a sketch with the same seed, domain and config — nothing
// here checks that, which is why only frame readers and composites call it.
// On a fresh sketch it is an exact restore; on a non-empty one it adds the
// two streams' contents, which is itself meaningful by linearity.
func (s *SpanningSketch) AddState(data []byte) error {
	b := data
	var err error
	for v := 0; v < s.dom.N(); v++ {
		if b, err = s.AddVertexShareFrom(v, b); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return ErrShare
	}
	return nil
}

// State serializes the skeleton sketch's full contents (see
// SpanningSketch.State).
func (s *SkeletonSketch) State() []byte {
	var b []byte
	for v := 0; v < s.dom.N(); v++ {
		b = append(b, s.VertexShare(v)...)
	}
	return b
}

// AddState merges a serialized skeleton state (see SpanningSketch.AddState).
func (s *SkeletonSketch) AddState(data []byte) error {
	b := data
	var err error
	for v := 0; v < s.dom.N(); v++ {
		if b, err = s.AddVertexShareFrom(v, b); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return ErrShare
	}
	return nil
}
