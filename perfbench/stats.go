package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts operations (batches, queries, gathers, warm-query blocks)
// and the two ways one can go wrong: an error return, or an answer that
// disagrees with the exact graph.
type tally struct {
	attempted, failed, wrong int64
}

// op records one mutation or gather; it reports whether it succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		return false
	}
	return true
}

// answer records one query answer against its exact value and reports
// whether it was right.
func (t *tally) answer(got bool, err error, want bool) bool {
	if !t.op(err) {
		return false
	}
	if got != want {
		t.wrong++
		return false
	}
	return true
}

// bad is the number of operations that failed or answered wrongly.
func (t *tally) bad() int64 { return t.failed + t.wrong }

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.bad()) / float64(t.attempted)
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
}
