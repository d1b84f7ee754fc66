package recovery

import (
	"fmt"
	"sync"

	"graphsketch/internal/field"
	"graphsketch/internal/hashutil"
)

// SSparse recovers a dynamically updated vector exactly whenever it has at
// most S nonzero coordinates, and certifies success. It hashes each
// coordinate into Buckets buckets in each of Rows independent rows; each
// bucket is a 1-sparse cell. Decoding peels: any bucket holding exactly one
// surviving coordinate reveals it, the coordinate is subtracted everywhere,
// and the process repeats. A separate global fingerprint cell certifies that
// the peeled set equals the full vector.
//
// With Buckets >= 2*S and Rows >= 2 the decode succeeds with constant
// probability per row set; callers that need high-probability recovery
// repeat the structure (the L0 sampler and skeleton sketches do exactly
// that and detect failures via the certification).
//
// The cell grid is stored struct-of-arrays: three contiguous slices
// (count, mom, fp) indexed by row*buckets+bucket. An update touches one
// word per slice per row, all rows landing in the same few cache lines of
// each array, and the slices hold no pointers, so the structure is invisible
// to the garbage collector's scan phase. The immutable randomness (bucket
// hashes, fingerprint point, shape) lives in a Shape that many structures
// share.
type SSparse struct {
	shape *Shape
	count []int64      // exact delta sums, row*buckets+bucket
	mom   []field.Elem // first-moment words, same indexing
	fp    []field.Elem // fingerprint words, same indexing
	total OneSparse    // global certification cell
}

// Shape is the seed-derived public randomness and geometry of an SSparse
// structure: everything except the cell contents. Shapes are immutable and
// freely shared — the L0 sampler's interning registry hands the same Shape
// to every same-seed sampler, so a spanning sketch's thousands of samplers
// per round stop duplicating hash coefficients.
type Shape struct {
	s       int
	rows    int
	buckets int
	mask    int // buckets-1 when buckets is a power of two, else -1
	dom     uint64
	seed    uint64
	z       field.Elem
	hash    []hashutil.Affine // one pairwise-independent row hash per row
}

// SSparseConfig controls the shape of an SSparse structure.
type SSparseConfig struct {
	// S is the sparsity the structure must recover. Must be >= 1.
	S int
	// Rows is the number of independent hash rows. Defaults to 3: with
	// two rows a pair of coordinates colliding in both rows (probability
	// ~ s²/buckets² per pair) is un-peelable; a third row makes that
	// event rare enough that the repetition at higher layers is cheap.
	Rows int
	// BucketsPerS scales the bucket count as BucketsPerS*S. Defaults to 2.
	BucketsPerS int
}

func (c SSparseConfig) withDefaults() SSparseConfig {
	if c.Rows <= 0 {
		c.Rows = 3
	}
	if c.BucketsPerS <= 0 {
		c.BucketsPerS = 2
	}
	return c
}

// NewShape derives the public randomness of an s-sparse structure for
// indices in [0, domain). Pass z = 0 to derive the fingerprint point from
// the seed. The derivation is identical to what NewSSparseAt performs, so
// structures built from a shape and structures built directly from the same
// (seed, domain, cfg, z) are compatible.
func NewShape(seed uint64, domain uint64, cfg SSparseConfig, z field.Elem) *Shape {
	cfg = cfg.withDefaults()
	if cfg.S < 1 {
		panic("recovery: SSparseConfig.S must be >= 1")
	}
	buckets := cfg.S * cfg.BucketsPerS
	if buckets < 2 {
		buckets = 2
	}
	ss := newSeedStream(seed)
	if z == 0 {
		z = fingerprintPoint(ss.At(0))
	}
	mask := -1
	if buckets&(buckets-1) == 0 {
		mask = buckets - 1
	}
	sh := &Shape{
		s:       cfg.S,
		rows:    cfg.Rows,
		buckets: buckets,
		mask:    mask,
		dom:     domain,
		seed:    seed,
		z:       z,
		hash:    make([]hashutil.Affine, cfg.Rows),
	}
	for r := 0; r < cfg.Rows; r++ {
		sh.hash[r] = hashutil.NewAffine(ss.At(uint64(1 + r)))
	}
	return sh
}

// RandWords returns the number of 64-bit words of derived randomness the
// shape carries (hash coefficients plus the fingerprint point), for the
// amortized space accounting of containers that share shapes.
func (sh *Shape) RandWords() int { return 2*sh.rows + 1 }

// bucketRed maps a pre-reduced index to row r's bucket.
func (sh *Shape) bucketRed(r int, iRed field.Elem) int {
	h := uint64(sh.hash[r].HashRed(iRed))
	if sh.mask >= 0 {
		return int(h) & sh.mask
	}
	return int(h % uint64(sh.buckets))
}

// compatible reports whether two shapes describe interchangeable structures.
// Shared shapes make this a pointer comparison in the common case.
func (sh *Shape) compatible(o *Shape) bool {
	return sh == o || (sh.seed == o.seed && sh.dom == o.dom &&
		sh.rows == o.rows && sh.buckets == o.buckets && sh.z == o.z)
}

// NewSSparse returns an s-sparse recovery structure for indices in
// [0, domain). Instances with equal seeds, domains and configs are
// compatible for AddScaled.
func NewSSparse(seed uint64, domain uint64, cfg SSparseConfig) *SSparse {
	return NewSSparseAt(seed, domain, cfg, 0)
}

// NewSSparseAt is NewSSparse with an explicit fingerprint point (pass 0 to
// derive it from the seed). Containers holding many structures share one
// point so a single z^i — typically from a field.Ladder — serves every
// structure per update via UpdatePow.
func NewSSparseAt(seed uint64, domain uint64, cfg SSparseConfig, z field.Elem) *SSparse {
	return NewSSparseFromShape(NewShape(seed, domain, cfg, z))
}

// NewSSparseFromShape returns a zero structure over a (possibly shared)
// shape. This is the allocation-lean constructor the L0 sampler's lazy
// level allocation uses: three pointer-free slices and nothing else.
func NewSSparseFromShape(sh *Shape) *SSparse {
	n := sh.rows * sh.buckets
	// One backing array for the two field-element planes keeps them on
	// adjacent cache lines and halves the allocation count.
	mf := make([]field.Elem, 2*n)
	return &SSparse{
		shape: sh,
		count: make([]int64, n),
		mom:   mf[:n:n],
		fp:    mf[n:],
		total: *NewOneSparseAt(sh.z, sh.dom),
	}
}

// Update applies f[i] += delta. All cells share the fingerprint point, so a
// single exponentiation serves the certification cell and every row.
func (t *SSparse) Update(i uint64, delta int64) {
	t.UpdatePow(i, delta, field.Pow(t.total.z, i))
}

// UpdatePow is Update with the fingerprint power z^i precomputed by the
// caller — which must use this structure's point (Z); containers holding
// many structures at a shared point amortize one ladder evaluation across
// all of them.
func (t *SSparse) UpdatePow(i uint64, delta int64, zPow field.Elem) {
	if i >= t.shape.dom {
		panic(fmt.Sprintf("recovery: index %d out of domain %d", i, t.shape.dom))
	}
	iRed := field.Reduce(i)
	dMom, dFp := DeltaTerms(iRed, zPow, delta)
	t.ApplyDelta(iRed, delta, dMom, dFp)
}

// DeltaTerms precomputes the two field-element increments an update
// (i, delta) contributes to every cell it touches: delta·i and delta·z^i.
// Containers that fan one update out to many structures sharing a
// fingerprint point (the L0 sampler's levels) compute them once. Unit
// deltas — the overwhelming common case for edge streams — skip the generic
// scalar multiply entirely.
func DeltaTerms(iRed, zPow field.Elem, delta int64) (dMom, dFp field.Elem) {
	switch delta {
	case 1:
		return iRed, zPow
	case -1:
		return field.Neg(iRed), field.Neg(zPow)
	default:
		d := field.FromInt64(delta)
		return field.Mul(d, iRed), field.Mul(d, zPow)
	}
}

// ApplyDelta is the no-validation hot path beneath UpdatePow: it applies a
// precomputed (iRed, delta, dMom, dFp) tuple — see DeltaTerms — to the
// certification cell and one bucket per row. Callers are responsible for
// the domain check and for iRed = Reduce(i), dMom/dFp matching delta.
func (t *SSparse) ApplyDelta(iRed field.Elem, delta int64, dMom, dFp field.Elem) {
	t.total.count += delta
	t.total.mom = field.Add(t.total.mom, dMom)
	t.total.fp = field.Add(t.total.fp, dFp)
	sh := t.shape
	count, mom, fp := t.count, t.mom, t.fp
	base := 0
	if sh.mask >= 0 {
		mask := uint64(sh.mask)
		for _, h := range sh.hash {
			idx := base + int(uint64(h.HashRed(iRed))&mask)
			count[idx] += delta
			mom[idx] = field.Add(mom[idx], dMom)
			fp[idx] = field.Add(fp[idx], dFp)
			base += sh.buckets
		}
		return
	}
	m := uint64(sh.buckets)
	for _, h := range sh.hash {
		idx := base + int(uint64(h.HashRed(iRed))%m)
		count[idx] += delta
		mom[idx] = field.Add(mom[idx], dMom)
		fp[idx] = field.Add(fp[idx], dFp)
		base += sh.buckets
	}
}

// Z returns the fingerprint evaluation point.
func (t *SSparse) Z() field.Elem { return t.total.z }

// Shape returns the structure's (shared, immutable) randomness and
// geometry.
func (t *SSparse) Shape() *Shape { return t.shape }

// AddScaled adds scale copies of o into t.
func (t *SSparse) AddScaled(o *SSparse, scale int64) error {
	if !t.shape.compatible(o.shape) {
		return ErrIncompatible
	}
	if err := t.total.AddScaled(&o.total, scale); err != nil {
		return err
	}
	if scale == 1 {
		// The common merge path (supernode sampler sums, skeleton layer
		// merges) stays multiplication-free.
		for i, c := range o.count {
			t.count[i] += c
		}
		for i, m := range o.mom {
			t.mom[i] = field.Add(t.mom[i], m)
		}
		for i, f := range o.fp {
			t.fp[i] = field.Add(t.fp[i], f)
		}
		return nil
	}
	s := field.FromInt64(scale)
	for i, c := range o.count {
		t.count[i] += scale * c
	}
	for i, m := range o.mom {
		t.mom[i] = field.Add(t.mom[i], field.Mul(s, m))
	}
	for i, f := range o.fp {
		t.fp[i] = field.Add(t.fp[i], field.Mul(s, f))
	}
	return nil
}

// Clone returns a deep copy (the immutable shape is shared).
func (t *SSparse) Clone() *SSparse {
	cp := *t
	n := len(t.count)
	mf := make([]field.Elem, 2*n)
	cp.count = make([]int64, n)
	copy(cp.count, t.count)
	cp.mom = mf[:n:n]
	copy(cp.mom, t.mom)
	cp.fp = mf[n:]
	copy(cp.fp, t.fp)
	return &cp
}

// CopyFrom overwrites t with o — shape and cells — reusing t's cell storage
// when it already has o's geometry. The zero SSparse value may be a
// destination, so callers can keep reusable scratch structures.
func (t *SSparse) CopyFrom(o *SSparse) {
	t.reshape(o.shape)
	copy(t.count, o.count)
	copy(t.mom, o.mom)
	copy(t.fp, o.fp)
	t.total = o.total
}

// Reset makes t the zero structure over shape sh, reusing t's cell storage
// when it already has sh's geometry. The zero SSparse value may be Reset.
func (t *SSparse) Reset(sh *Shape) {
	t.reshape(sh)
	clear(t.count)
	clear(t.mom)
	clear(t.fp)
	t.total = OneSparse{z: sh.z, dom: sh.dom}
}

// reshape points t at sh and sizes its cell planes for sh's geometry,
// allocating only when the current storage does not match. Cell contents
// are left for the caller to overwrite.
func (t *SSparse) reshape(sh *Shape) {
	t.shape = sh
	n := sh.rows * sh.buckets
	if len(t.count) != n {
		mf := make([]field.Elem, 2*n)
		t.count, t.mom, t.fp = make([]int64, n), mf[:n:n], mf[n:]
	}
}

// IsZero reports whether the structure is consistent with the zero vector.
func (t *SSparse) IsZero() bool {
	return t.total.IsZero()
}

// decodeScratch is the pooled working state of a Decode: a mutable copy of
// the cell planes plus the certification cell. Pooling it makes the query
// path allocation-free after warm-up, apart from the result map handed to
// the caller.
type decodeScratch struct {
	count []int64
	mom   []field.Elem
	fp    []field.Elem
	total OneSparse
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

func (w *decodeScratch) load(t *SSparse) {
	n := len(t.count)
	if cap(w.count) < n {
		w.count = make([]int64, n)
		mf := make([]field.Elem, 2*n)
		w.mom, w.fp = mf[:n:n], mf[n:]
	}
	w.count = w.count[:n]
	w.mom = w.mom[:n]
	w.fp = w.fp[:n]
	copy(w.count, t.count)
	copy(w.mom, t.mom)
	copy(w.fp, t.fp)
	w.total = t.total
}

// subtract removes value v at index i from every cell of the scratch.
func (w *decodeScratch) subtract(sh *Shape, i uint64, v int64) {
	iRed := field.Reduce(i)
	dMom, dFp := DeltaTerms(iRed, field.Pow(sh.z, i), -v)
	w.total.count -= v
	w.total.mom = field.Add(w.total.mom, dMom)
	w.total.fp = field.Add(w.total.fp, dFp)
	base := 0
	for r := 0; r < len(sh.hash); r++ {
		idx := base + sh.bucketRed(r, iRed)
		w.count[idx] -= v
		w.mom[idx] = field.Add(w.mom[idx], dMom)
		w.fp[idx] = field.Add(w.fp[idx], dFp)
		base += sh.buckets
	}
}

// allZero reports whether every cell, including the certification cell, is
// consistent with zero.
func (w *decodeScratch) allZero() bool {
	if !w.total.IsZero() {
		return false
	}
	for i := range w.count {
		if w.count[i] != 0 || w.mom[i] != 0 || w.fp[i] != 0 {
			return false
		}
	}
	return true
}

// Decode attempts to recover the full vector. On success it returns the map
// of nonzero coordinates and true; the result is certified by the global
// fingerprint, so a true return is correct up to fingerprint collision
// probability (~2^-40). On failure (vector not s-sparse, or unlucky
// hashing) it returns nil and false — it never silently returns a wrong or
// partial vector.
//
// Decode never mutates t: it peels a pooled scratch copy, so the query path
// performs no steady-state allocation beyond the result map.
func (t *SSparse) Decode() (map[uint64]int64, bool) {
	var buf [16]Coord
	vec, ok := t.DecodeTo(buf[:0])
	if !ok {
		return nil, false
	}
	out := make(map[uint64]int64, len(vec))
	for _, c := range vec {
		out[c.I] = c.V
	}
	return out, true
}

// Coord is one recovered nonzero coordinate: f[I] = V.
type Coord struct {
	I uint64
	V int64
}

// DecodeTo is Decode without the result map: on success it appends the
// recovered nonzero coordinates to dst, each index once and in peel order,
// and returns the extended slice and true; on failure it returns dst
// unchanged and false. Given a dst with enough capacity it allocates
// nothing after warm-up, which is what lets the L0 sampler draw without
// garbage.
func (t *SSparse) DecodeTo(dst []Coord) ([]Coord, bool) {
	sh := t.shape
	work := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(work)
	work.load(t)
	base := len(dst)
	// Peeling: each successful peel zeroes one coordinate, and a vector
	// that decodes has at most rows*buckets live coordinates in the worst
	// imaginable case; cap iterations defensively.
	maxIter := sh.rows*sh.buckets + 4
	for iter := 0; iter < maxIter; iter++ {
		peeled := false
	scan:
		for r := 0; r < sh.rows; r++ {
			base := r * sh.buckets
			for b := 0; b < sh.buckets; b++ {
				idx := base + b
				i, v, ok := decodeCell(work.count[idx], work.mom[idx], work.fp[idx], sh.z, sh.dom)
				if !ok {
					continue
				}
				// Guard against fingerprint false positives that
				// hash elsewhere: the index must belong here.
				if sh.bucketRed(r, field.Reduce(i)) != b {
					continue
				}
				dst = addCoord(dst, base, i, v)
				work.subtract(sh, i, v)
				peeled = true
				break scan
			}
		}
		if !peeled {
			break
		}
	}
	if !work.allZero() {
		rm.failures.Inc()
		return dst[:base], false
	}
	out := dst[:base]
	for _, c := range dst[base:] {
		if c.V != 0 { // an index peeled twice can net to zero
			out = append(out, c)
		}
	}
	rm.successes.Inc()
	return out, true
}

// addCoord adds v to index i's entry in dst[base:], appending the entry if
// i is new. Decoded vectors hold O(S) coordinates, so a linear scan beats a
// map.
func addCoord(dst []Coord, base int, i uint64, v int64) []Coord {
	for j := base; j < len(dst); j++ {
		if dst[j].I == i {
			dst[j].V += v
			return dst
		}
	}
	return append(dst, Coord{I: i, V: v})
}

// decodeCell attempts 1-sparse recovery on a raw (count, mom, fp) cell; the
// flat-layout counterpart of OneSparse.Decode, with identical semantics.
func decodeCell(count int64, mom, fp, z field.Elem, dom uint64) (i uint64, v int64, ok bool) {
	if count == 0 {
		// A truly 1-sparse vector has count equal to its nonzero value,
		// so count == 0 means "zero or not 1-sparse" either way.
		return 0, 0, false
	}
	f := field.FromInt64(count)
	if f == 0 {
		return 0, 0, false
	}
	idx := field.Mul(mom, field.Inv(f))
	if uint64(idx) >= dom {
		rm.fpRejects.Inc()
		return 0, 0, false
	}
	// Verify: a 1-sparse vector with value count at idx has fingerprint
	// count * z^idx.
	if field.Mul(f, field.Pow(z, uint64(idx))) != fp {
		rm.fpRejects.Inc()
		return 0, 0, false
	}
	return uint64(idx), count, true
}

// S returns the design sparsity.
func (t *SSparse) S() int { return t.shape.s }

// Domain returns the exclusive index upper bound.
func (t *SSparse) Domain() uint64 { return t.shape.dom }

// Words returns the memory footprint in 64-bit words.
func (t *SSparse) Words() int {
	return t.total.Words() + t.shape.rows*t.shape.buckets*3
}

// CellStats reports the grid geometry and occupancy: the total number of
// cells (rows × buckets) and how many currently hold a nonzero delta sum.
// Health introspection reads the ratio as a fill gauge.
func (t *SSparse) CellStats() (cells, nonzero int) {
	for _, c := range t.count {
		if c != 0 {
			nonzero++
		}
	}
	return len(t.count), nonzero
}

// MaybeDecodable reports a cheap necessary condition for Decode to
// succeed: some row holds at most S nonzero cells. A support larger than
// S fills more than S cells in every row whp, so failing this check means
// the level is over-dense; passing it is no guarantee (collisions can
// still defeat peeling). Health introspection treats the result as a risk
// signal, not a certificate — Decode's fingerprint certification remains
// the ground truth.
func (t *SSparse) MaybeDecodable() bool {
	sh := t.shape
	for r := 0; r < sh.rows; r++ {
		nz := 0
		for _, c := range t.count[r*sh.buckets : (r+1)*sh.buckets] {
			if c != 0 {
				nz++
			}
		}
		if nz <= sh.s {
			return true
		}
	}
	return false
}
