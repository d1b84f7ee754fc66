package l0

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"graphsketch/internal/obs"
)

// drawCounts snapshots the sampler-health counters a draw moves.
type drawCounts struct{ draws, successes, failures, empties int64 }

func readDrawCounts() drawCounts {
	return drawCounts{lm.draws.Value(), lm.successes.Value(), lm.failures.Value(), lm.empties.Value()}
}

func (a drawCounts) sub(b drawCounts) drawCounts {
	return drawCounts{a.draws - b.draws, a.successes - b.successes, a.failures - b.failures, a.empties - b.empties}
}

// materialisedDraw is the reference SampleSum replaces: build the whole sum,
// then draw from it.
func materialisedDraw(t *testing.T, parts []*Sampler) (idx uint64, val int64, ok, empty bool) {
	t.Helper()
	sum := parts[0].Clone()
	for _, p := range parts[1:] {
		if err := sum.AddScaled(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	idx, val, ok = sum.Sample()
	return idx, val, ok, !ok && sum.IsZero()
}

// keyWithTop returns the smallest key whose subsampling level is at least
// top (exactly top when exact is set).
func keyWithTop(s *Sampler, top int, exact bool) uint64 {
	for k := uint64(0); ; k++ {
		if got, _ := s.Hash(k); got == top || (!exact && got > top) {
			return k
		}
	}
}

// TestSampleSumMatchesMaterialisedSum pins SampleSum to the clone-and-add
// draw it replaces: the same (idx, val, ok, empty) and the same counter
// movements, over random part sets and the edge cases of the lazy scan —
// one part, levels allocated in only one part, parts that cancel, and
// level-too-dense failures above and at level 0. One scratch serves every
// case, so storage reuse across seeds and shapes is covered too.
func TestSampleSumMatchesMaterialisedSum(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	const dom = 1 << 16
	newPart := func(seed uint64, cfg Config, keys []uint64, delta int64) *Sampler {
		s := New(seed, dom, cfg)
		for _, k := range keys {
			s.Update(k, delta)
		}
		return s
	}
	type tc struct {
		name  string
		parts []*Sampler
	}
	var cases []tc

	base := New(11, dom, Config{})
	deep, shallow := keyWithTop(base, 5, false), keyWithTop(base, 0, true)
	cases = append(cases,
		tc{"one-part", []*Sampler{newPart(11, Config{}, []uint64{3, 70, 900}, 1)}},
		tc{"one-empty-part", []*Sampler{New(11, dom, Config{})}},
		tc{"disjoint-levels", []*Sampler{
			newPart(11, Config{}, []uint64{shallow}, 1),
			New(11, dom, Config{}), // no levels at all
			newPart(11, Config{}, []uint64{deep}, -1),
		}},
		tc{"cancelling", []*Sampler{
			newPart(12, Config{}, []uint64{5, 6, 7, deep}, 1),
			newPart(12, Config{}, []uint64{5, 6}, -1),
			newPart(12, Config{}, []uint64{7, deep}, -1),
		}},
	)
	dense := make([]uint64, 400)
	for i := range dense {
		dense[i] = uint64(i*97 + 1)
	}
	for _, lv := range []int{2, 1} { // MaxLevels 1 fails at level 0
		cfg := Config{S: 2, MaxLevels: lv}
		cases = append(cases, tc{"too-dense", []*Sampler{
			newPart(13, cfg, dense[:200], 1),
			newPart(13, cfg, dense[200:], 1),
		}})
	}
	// An exact-part sampler as the hybrid decode builds it: Reset from a
	// dirty sampler of another seed, then updated.
	exact := newPart(99, Config{}, dense[:50], 1)
	exact.Reset(base)
	exact.Update(shallow, 2)
	cases = append(cases, tc{"reset-part", []*Sampler{newPart(11, Config{}, []uint64{deep, 40}, 1), exact}})

	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 300; i++ {
		seed := uint64(20 + rng.IntN(3))
		parts := make([]*Sampler, 1+rng.IntN(6))
		for j := range parts {
			keys := make([]uint64, rng.IntN(1+rng.IntN(60)))
			for k := range keys {
				keys[k] = rng.Uint64N(256) // a small key space, so parts overlap and cancel
			}
			delta := int64(1 - 2*rng.IntN(2))
			parts[j] = newPart(seed, Config{}, keys, delta)
		}
		cases = append(cases, tc{"random", parts})
	}

	var scratch Sampler
	seen := map[string]bool{}
	for _, c := range cases {
		before := make([][]byte, len(c.parts))
		for j, p := range c.parts {
			before[j] = p.AppendBinary(nil)
		}
		c0 := readDrawCounts()
		wIdx, wVal, wOK, wEmpty := materialisedDraw(t, c.parts)
		c1 := readDrawCounts()
		gIdx, gVal, gOK, gEmpty := scratch.SampleSum(c.parts)
		c2 := readDrawCounts()
		if gIdx != wIdx || gVal != wVal || gOK != wOK || gEmpty != wEmpty {
			t.Fatalf("%s: SampleSum = (%d, %d, %v, %v), materialised sum = (%d, %d, %v, %v)",
				c.name, gIdx, gVal, gOK, gEmpty, wIdx, wVal, wOK, wEmpty)
		}
		if got, want := c2.sub(c1), c1.sub(c0); got != want {
			t.Fatalf("%s: SampleSum moved counters by %+v, materialised draw by %+v", c.name, got, want)
		}
		for j, p := range c.parts {
			if !bytes.Equal(p.AppendBinary(nil), before[j]) {
				t.Fatalf("%s: SampleSum modified part %d", c.name, j)
			}
		}
		switch {
		case c.name == "too-dense" && gOK:
			t.Fatalf("too-dense case drew a sample; want a decode failure")
		case c.name == "cancelling" && !gEmpty:
			t.Fatalf("cancelling parts not certified empty")
		}
		seen[map[bool]string{true: "ok", false: "failed"}[gOK]] = true
		if gEmpty {
			seen["empty"] = true
		}
	}
	for _, outcome := range []string{"ok", "failed", "empty"} {
		if !seen[outcome] {
			t.Errorf("no case produced outcome %q", outcome)
		}
	}
}

// A warmed SampleSum allocates nothing: the sum lives in the scratch's
// reused level storage and decoded levels land in a stack buffer.
func TestSampleSumZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled decode scratch at random")
	}
	parts := make([]*Sampler, 3)
	for j := range parts {
		parts[j] = New(0x5eed+2, 1<<20, Config{})
		for i := uint64(1); i <= 40; i++ {
			parts[j].Update(i*uint64(j+3)*131, 1)
		}
	}
	var scratch Sampler
	draw := func() {
		if _, _, ok, _ := scratch.SampleSum(parts); !ok {
			t.Fatal("sum draw failed")
		}
		if _, _, ok, _ := scratch.SampleSum(parts[:1]); !ok {
			t.Fatal("single-part draw failed")
		}
	}
	draw() // warm-up: size the scratch levels and the decode pool
	if allocs := testing.AllocsPerRun(100, draw); allocs != 0 {
		t.Fatalf("warmed SampleSum allocates %.1f objects per run; want 0", allocs)
	}
}
