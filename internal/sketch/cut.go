package sketch

import (
	"graphsketch/internal/graph"
	"graphsketch/internal/l0"
)

// Rows is an exact correction to a sketch's incidence vectors: Rows(v)
// lists (edge key, net weight) pairs that the decode adds to vertex v's
// vector a_v, each with v's incidence coefficient, on top of whatever v's
// samplers hold. The adaptive hybrid's unspilled buffers are such rows, and
// so is a subgraph to subtract (GraphRows). A nil Rows adds nothing.
type Rows func(v int) (keys []uint64, ws []int64)

// GraphRows returns the rows of scale·h over the key domain dom: every
// edge of h appears in each of its endpoints' rows with weight scale·w.
// With scale = −1 a decode given these rows peels h off the sketched graph
// by linearity, as UpdateGraph(h, −1) would on a copy. A nil h gives nil
// rows.
func GraphRows(dom graph.Domain, h *graph.Hypergraph, scale int64) (Rows, error) {
	if h == nil {
		return nil, nil
	}
	keys, ws := make([][]uint64, dom.N()), make([][]int64, dom.N())
	for _, we := range h.WeightedEdges() {
		key, err := dom.Encode(we.E)
		if err != nil {
			return nil, err
		}
		for _, v := range we.E {
			keys[v] = append(keys[v], key)
			ws[v] = append(ws[v], scale*we.W)
		}
	}
	return func(v int) ([]uint64, []int64) { return keys[v], ws[v] }, nil
}

// NewCut returns the Borůvka cut query Peel runs over s, the one cut every
// spanning, skeleton and hybrid decode uses. For a component with the
// given members in round t it draws from the sum of
//
//   - the round-t samplers of the members sketched reports (every member
//     when sketched is nil), summed lazily by l0.Sampler.SampleSum, and
//   - the members' exact rows, accumulated with the incidence coefficients
//     (|e|−1 at the min endpoint, −1 elsewhere) so that edges inside the
//     component cancel, and injected into one scratch sampler by Update,
//     the same linear map the stream applies.
//
// When no member is sketched the accumulator is the whole cut vector, and
// the answer is its smallest nonzero key: deterministic, no sampler draw,
// and certified empty exactly. The returned query owns its scratch, so
// each decode needs its own; it never writes s.
func NewCut(s *SpanningSketch, sketched func(v int) bool, rows ...Rows) func(t int, members []int) (key uint64, ok, empty bool) {
	c := &cut{s: s, sketched: sketched, parts: make([]*l0.Sampler, 0, s.dom.N()+1)}
	for _, r := range rows {
		if r != nil {
			c.rows = append(c.rows, r)
		}
	}
	if len(c.rows) > 0 {
		c.acc = make(map[uint64]int64)
	}
	return c.draw
}

// cut is one decode's cut query and its scratch, reused across every
// component and round of the decode.
type cut struct {
	s        *SpanningSketch
	sketched func(v int) bool
	rows     []Rows
	// acc accumulates a component's exact cut part: edge key → net
	// coefficient-weighted sum over its members' rows.
	acc map[uint64]int64
	// exact holds acc as a sampler; sum is SampleSum's scratch; parts
	// lists the samplers summed for one component.
	exact, sum l0.Sampler
	parts      []*l0.Sampler
}

func (c *cut) draw(t int, members []int) (key uint64, ok, empty bool) {
	c.parts = c.parts[:0]
	round := c.s.samplers[t]
	for _, v := range members {
		if c.sketched == nil || c.sketched(v) {
			c.parts = append(c.parts, round[v])
		}
	}
	if len(c.rows) > 0 && !c.accumulate(members) {
		return 0, false, false
	}
	if len(c.parts) == 0 {
		best, found := uint64(0), false
		for k, net := range c.acc {
			if net != 0 && (!found || k < best) {
				best, found = k, true
			}
		}
		return best, found, !found
	}
	// Edges shared between the exact part and sketched members cancel
	// here, inside the sampler sum.
	injected := false
	for k, net := range c.acc {
		if net == 0 {
			continue
		}
		if !injected {
			c.exact.Reset(c.parts[0])
			injected = true
		}
		c.exact.Update(k, net)
	}
	if injected {
		c.parts = append(c.parts, &c.exact)
	}
	key, _, ok, empty = c.sum.SampleSum(c.parts)
	return key, ok, empty
}

// accumulate sets acc to Σ over members v of coeff_e(v)·w for every (e, w)
// in v's rows. It reports false when a row holds a key outside the domain,
// which the peel counts as a failed sample.
func (c *cut) accumulate(members []int) bool {
	dom := c.s.dom
	clear(c.acc)
	for _, v := range members {
		for _, r := range c.rows {
			keys, ws := r(v)
			for i, k := range keys {
				e, err := dom.Decode(k)
				if err != nil {
					return false
				}
				coeff := int64(-1)
				if e[0] == v {
					coeff = int64(len(e)) - 1
				}
				c.acc[k] += coeff * ws[i]
			}
		}
	}
	return true
}
