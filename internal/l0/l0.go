// Package l0 implements L0 samplers in the style of Jowhari, Saglam and
// Tardos: linear sketches of a dynamically updated vector f ∈ Z^domain from
// which, at query time, one can extract a (near-)uniformly random element of
// the support of f — or detect that the support is empty.
//
// The construction layers geometric subsampling over certified s-sparse
// recovery: coordinate i participates in levels 0..Level(i) where
// P[Level(i) ≥ l] = 2^-l, and each level holds an s-sparse recovery
// structure. Whatever the support size, some level whp holds between 1 and
// s surviving coordinates and decodes exactly; the sampler returns the
// minimum-hash element of that level for uniformity.
//
// Samplers are linear: instances with identical seeds, domains, and configs
// can be added and subtracted, which the graph sketches use to sum vertex
// incidence vectors across supernodes (Boruvka rounds) and to peel known
// subgraphs out of skeleton sketches.
//
// All seed-derived public randomness — level hash, fingerprint ladder,
// per-level bucket-hash coefficients — is interned in a package registry
// keyed by (seed, domain, config), so the thousands of same-seed samplers a
// spanning or skeleton sketch allocates share one copy instead of each
// re-deriving and storing it.
package l0

import (
	"math/bits"

	"graphsketch/internal/field"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/obs"
	"graphsketch/internal/recovery"
)

// Config controls the shape (and hence space and failure probability) of a
// sampler.
type Config struct {
	// S is the per-level recovery sparsity. Larger S lowers the
	// probability that the support-size transition between adjacent
	// levels skips past the decodable window. Default 8.
	S int
	// Rows and BucketsPerS are passed to the per-level s-sparse recovery.
	Rows        int
	BucketsPerS int
	// MaxLevels caps the number of subsampling levels. The default is
	// enough levels to thin any support within the domain to O(1):
	// ⌈log2(domain)⌉ + 1.
	MaxLevels int
}

func (c Config) withDefaults(domain uint64) Config {
	if c.S <= 0 {
		c.S = 8
	}
	if c.MaxLevels <= 0 {
		c.MaxLevels = bits.Len64(domain-1) + 1
	}
	return c
}

// Sampler is a linear L0-sampling sketch over [0, domain).
//
// Levels are allocated lazily: a level's recovery structure materializes on
// the first update that reaches it. A coordinate reaches level l with
// probability 2^-l, so a sampler that has seen d updates allocates about
// log2(d) levels — this is what keeps a full graph sketch (one sampler per
// vertex per round) proportional to the sketch's *information* content
// rather than to the worst-case level count. An unallocated level is
// exactly a zero structure; linearity is unaffected.
//
// The sampler's own state is only the level slice; every derived constant
// (hashes, ladder, per-level shapes, pre-defaulted config) lives in the
// interned sharedRand, sized once from the domain at interning time.
type Sampler struct {
	sh     *sharedRand
	levels []*recovery.SSparse // nil entries are implicitly zero
}

// New returns a sampler for indices in [0, domain). Samplers with equal
// seeds, domains and configs are compatible for AddScaled.
func New(seed uint64, domain uint64, cfg Config) *Sampler {
	cfg = cfg.withDefaults(domain)
	return &Sampler{
		sh:     internShared(seed, domain, cfg),
		levels: make([]*recovery.SSparse, cfg.MaxLevels),
	}
}

// level returns the recovery structure for lv, allocating it if needed.
// Allocation is three pointer-free slices over the interned shape — no
// config re-derivation, no hash drawing.
func (s *Sampler) level(lv int) *recovery.SSparse {
	t := s.levels[lv]
	if t == nil {
		t = recovery.NewSSparseFromShape(s.sh.shapes[lv])
		s.levels[lv] = t
	}
	return t
}

// Update applies f[i] += delta. One ladder evaluation of z^i serves every
// touched level (they share the fingerprint point).
func (s *Sampler) Update(i uint64, delta int64) {
	top, zPow := s.Hash(i)
	s.UpdateHashed(i, delta, top, zPow)
}

// Hash returns the subsampling level and fingerprint power of index i —
// the two hash evaluations Update performs before touching any state. Both
// depend only on the sampler's seed, so a caller updating many same-seed
// samplers with the same index (e.g. one spanning-sketch round across an
// edge's endpoints) can evaluate them once and fan the result out with
// UpdateHashed.
func (s *Sampler) Hash(i uint64) (top int, zPow field.Elem) {
	return s.sh.lh.Level(i), s.sh.ladder.Pow(i)
}

// UpdateHashed applies f[i] += delta given a precomputed (top, zPow) pair
// obtained from Hash on a sampler with the same seed and config. The
// reduction of i and the per-cell field increments are computed once and
// fanned out to every touched level; after its levels exist, the path
// allocates nothing.
func (s *Sampler) UpdateHashed(i uint64, delta int64, top int, zPow field.Elem) {
	if i >= s.sh.dom {
		panic("l0: index out of domain")
	}
	iRed := field.Reduce(i)
	dMom, dFp := recovery.DeltaTerms(iRed, zPow, delta)
	levels := s.levels
	for lv := 0; lv <= top; lv++ {
		t := levels[lv]
		if t == nil { // manual inline of level(): keep the hot loop call-free
			t = recovery.NewSSparseFromShape(s.sh.shapes[lv])
			levels[lv] = t
		}
		t.ApplyDelta(iRed, delta, dMom, dFp)
	}
}

// AddScaled adds scale copies of o into s.
func (s *Sampler) AddScaled(o *Sampler, scale int64) error {
	if !s.compatible(o) {
		return recovery.ErrIncompatible
	}
	for lv := range o.levels {
		if o.levels[lv] == nil {
			continue // adding zero
		}
		if err := s.level(lv).AddScaled(o.levels[lv], scale); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy (the interned randomness is shared).
func (s *Sampler) Clone() *Sampler {
	cp := *s
	cp.levels = make([]*recovery.SSparse, len(s.levels))
	for lv := range s.levels {
		if s.levels[lv] != nil {
			cp.levels[lv] = s.levels[lv].Clone()
		}
	}
	return &cp
}

// Reset makes s the zero vector over like's randomness (seed, domain and
// config), keeping s's allocated level storage for reuse. The zero Sampler
// may be Reset.
func (s *Sampler) Reset(like *Sampler) {
	s.sh = like.sh
	if len(s.levels) != len(like.levels) {
		s.levels = make([]*recovery.SSparse, len(like.levels))
	}
	for lv, t := range s.levels {
		if t != nil {
			t.Reset(s.sh.shapes[lv])
		}
	}
}

// IsZero reports whether the sketch is consistent with the zero vector.
func (s *Sampler) IsZero() bool {
	return s.levels[0] == nil || s.levels[0].IsZero()
}

// Sample returns an element (index, value) of the support of f, chosen
// near-uniformly at random by the seed's min-hash, or ok = false if the
// support is empty or the sampler failed (all decodable levels were empty
// while the vector is nonzero — detected, never silent).
//
// The returned coordinate is certified by the recovery fingerprints: up to
// fingerprint collision probability (~2^-40) it is a true element of the
// support with its true value.
func (s *Sampler) Sample() (idx uint64, val int64, ok bool) {
	idx, val, ok, _ = s.sh.draw(len(s.levels), func(lv int) *recovery.SSparse { return s.levels[lv] })
	return idx, val, ok
}

// SampleSum draws from the sum of parts: it returns exactly what
//
//	sum := parts[0].Clone()
//	for _, p := range parts[1:] {
//		sum.AddScaled(p, 1)
//	}
//	idx, val, ok = sum.Sample()
//	empty = !ok && sum.IsZero()
//
// returns, counters included, without building the sum. The parts are
// summed one level at a time, as the top-down scan reaches the level, into
// s's level storage; a level that only one part holds is decoded in place,
// so a single part is sampled directly. The scan stops at the first level
// that decodes non-empty, so the denser levels below it are never summed.
// When a level fails to decode, only level 0 is needed to certify
// emptiness.
//
// The receiver is caller-owned scratch: its contents are overwritten and
// its level storage is reused across calls, so a warmed SampleSum
// allocates nothing. The zero Sampler is valid scratch. The parts are not
// modified; they must share a seed, domain and config, and SampleSum
// panics otherwise, as AddScaled would have failed.
func (s *Sampler) SampleSum(parts []*Sampler) (idx uint64, val int64, ok, empty bool) {
	p0 := parts[0]
	for _, p := range parts[1:] {
		if !p0.compatible(p) {
			panic(recovery.ErrIncompatible)
		}
	}
	if len(s.levels) != len(p0.levels) {
		s.levels = make([]*recovery.SSparse, len(p0.levels))
	}
	var last *recovery.SSparse // the last level the scan summed
	idx, val, ok, fail := p0.sh.draw(len(p0.levels), func(lv int) *recovery.SSparse {
		last = s.sumLevel(parts, lv)
		return last
	})
	switch {
	case ok:
		return idx, val, true, false
	case fail < 0: // every level decoded empty
		return 0, 0, false, true
	case fail > 0:
		last = s.sumLevel(parts, 0)
	}
	return 0, 0, false, last == nil || last.IsZero()
}

// sumLevel returns level lv of the sum of parts: nil when no part has the
// level allocated (the sum's level is zero), the part's own level when
// exactly one has it, and otherwise the sum built in s's storage.
func (s *Sampler) sumLevel(parts []*Sampler, lv int) *recovery.SSparse {
	var first, sum *recovery.SSparse
	for _, p := range parts {
		o := p.levels[lv]
		switch {
		case o == nil:
		case first == nil:
			first = o
		default:
			if sum == nil {
				if s.levels[lv] == nil {
					s.levels[lv] = new(recovery.SSparse)
				}
				sum = s.levels[lv]
				sum.CopyFrom(first)
			}
			if err := sum.AddScaled(o, 1); err != nil {
				panic(err) // compatibility was checked in SampleSum
			}
		}
	}
	if sum != nil {
		return sum
	}
	return first
}

// compatible reports whether o can be added into s.
func (s *Sampler) compatible(o *Sampler) bool {
	return s.sh == o.sh || (s.sh.seed == o.sh.seed && s.sh.dom == o.sh.dom && s.sh.cfg == o.sh.cfg)
}

// draw is the scan behind Sample and SampleSum over a vector whose level lv
// is level(lv), nil when that level is zero. From the sparsest level down,
// the first decodable level with nonempty support yields its min-hash
// element. fail is the level that failed to decode, or -1.
func (sh *sharedRand) draw(levels int, level func(lv int) *recovery.SSparse) (idx uint64, val int64, ok bool, fail int) {
	lm.draws.Inc()
	var buf [16]recovery.Coord
	for lv := levels - 1; lv >= 0; lv-- {
		t := level(lv)
		if t == nil {
			continue // unallocated level is empty
		}
		vec, decoded := t.DecodeTo(buf[:0])
		if !decoded {
			// This level is too dense; all sparser levels were empty,
			// so the support-size transition skipped the window.
			lm.failures.Inc()
			obs.RecordEvent("l0.sample_failure", "level", lv, "max_levels", levels)
			return 0, 0, false, lv
		}
		if len(vec) == 0 {
			continue
		}
		var best recovery.Coord
		bestHash := ^uint64(0)
		for _, c := range vec {
			h := hashutil.Mix64(sh.tie + hashutil.Mix64(c.I))
			if h < bestHash {
				bestHash, best = h, c
			}
		}
		lm.successes.Inc()
		return best.I, best.V, true, -1
	}
	lm.empties.Inc()
	return 0, 0, false, -1 // genuinely empty support
}

// Decode attempts full recovery of the vector, which succeeds when the
// support has at most S elements (level 0 decodes). This is what the
// spanning-graph sketches use when a supernode has few incident edges.
func (s *Sampler) Decode() (map[uint64]int64, bool) {
	if s.levels[0] == nil {
		return map[uint64]int64{}, true
	}
	return s.levels[0].Decode()
}

// Domain returns the exclusive index upper bound.
func (s *Sampler) Domain() uint64 { return s.sh.dom }

// Config returns the (defaulted) configuration.
func (s *Sampler) Config() Config { return s.sh.cfg }

// Words returns the memory footprint in 64-bit words: the allocated levels'
// cells (unallocated levels carry no state) plus this sampler's amortized
// share of the interned randomness — SharedWords divided across every
// same-parameter sampler constructed so far. Summing Words over a family of
// same-seed samplers therefore counts the shared state once (up to
// rounding), which keeps the experiments' space tables honest now that the
// randomness is stored once per family rather than once per sampler.
func (s *Sampler) Words() int {
	return s.sh.amortizedWords() + s.StateWords()
}

// StateWords returns the cells-only footprint in 64-bit words: exactly the
// sampler's serialized content, and the message size of a vertex share in
// the simultaneous communication model (the shared randomness is public and
// never transmitted). Containers that know their family structure — a
// spanning sketch's n same-seed samplers per round — combine StateWords
// with one SharedWords per family for exact deterministic accounting.
func (s *Sampler) StateWords() int {
	w := 0
	for _, lv := range s.levels {
		if lv != nil {
			w += lv.Words()
		}
	}
	return w
}

// SharedWords returns the un-amortized size in 64-bit words of the interned
// seed-derived randomness this sampler references (fingerprint ladder,
// level hash, tie-break seed, and every level's bucket-hash coefficients).
func (s *Sampler) SharedWords() int { return s.sh.words }
