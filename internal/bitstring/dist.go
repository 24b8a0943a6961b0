package bitstring

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Dist is an empirical distribution over n-qubit bit-strings: the counts (or
// re-weighted pseudo-counts after mitigation) observed for each outcome.
// Counts are float64 because mitigation redistributes fractional flow.
type Dist struct {
	n      int
	counts map[BitString]float64
	total  float64
}

// NewDist returns an empty distribution over width-n bit-strings.
func NewDist(n int) *Dist {
	return &Dist{n: n, counts: make(map[BitString]float64)}
}

// NewDistCap is NewDist with the outcome map pre-sized for an expected
// support, avoiding rehash growth when the caller knows the outcome count
// up front (e.g. statevector.Dist counts its support first).
func NewDistCap(n, capacity int) *Dist {
	if capacity < 0 {
		capacity = 0
	}
	return &Dist{n: n, counts: make(map[BitString]float64, capacity)}
}

// FromCounts builds a distribution from a map of outcome to count.
func FromCounts(n int, counts map[BitString]float64) *Dist {
	keys := make([]BitString, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	d := NewDist(n)
	for _, k := range keys {
		d.Add(k, counts[k])
	}
	return d
}

// FromStringCounts builds a distribution from textual outcomes, e.g. the
// shape of an IBMQ result dictionary {"0101": 17, ...}. All keys must have
// the same width, and every count must be finite and non-negative.
func FromStringCounts(counts map[string]float64) (*Dist, error) {
	keys := make([]string, 0, len(counts))
	for s := range counts {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	var d *Dist
	for _, s := range keys {
		v, n, err := Parse(s)
		if err != nil {
			return nil, err
		}
		// Vendor dictionaries are untrusted input: a NaN or Inf count
		// would poison the running total and every probability derived
		// from it (found by FuzzDistFromCounts).
		c := counts[s]
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("bitstring: non-finite count %v for outcome %q", c, s)
		}
		// A negative count is malformed too; Add would floor it away and
		// silently change the total. Zero counts are accepted and dropped.
		if c < 0 {
			return nil, fmt.Errorf("bitstring: negative count %v for outcome %q", c, s)
		}
		if d == nil {
			d = NewDist(n)
		} else if n != d.n {
			return nil, fmt.Errorf("bitstring: mixed widths %d and %d", d.n, n)
		}
		d.Add(v, c)
	}
	if d == nil {
		return nil, fmt.Errorf("bitstring: empty counts")
	}
	return d, nil
}

// Width returns the register width n.
func (d *Dist) Width() int { return d.n }

// Add adds c observations of outcome v. Adding a negative count is allowed
// (mitigation flows subtract), but the stored count is floored at zero.
func (d *Dist) Add(v BitString, c float64) {
	cur := d.counts[v]
	next := cur + c
	if next <= 0 {
		d.total -= cur
		delete(d.counts, v)
		return
	}
	d.total += next - cur
	d.counts[v] = next
}

// Set replaces the count of outcome v.
func (d *Dist) Set(v BitString, c float64) {
	cur := d.counts[v]
	if c <= 0 {
		d.total -= cur
		delete(d.counts, v)
		return
	}
	d.total += c - cur
	d.counts[v] = c
}

// Count returns the count of outcome v (zero if unobserved).
//
//qbeep:mustinline
//qbeep:allocfree
func (d *Dist) Count(v BitString) float64 { return d.counts[v] }

// Total returns the sum of all counts (the shot count for raw data).
func (d *Dist) Total() float64 { return d.total }

// Prob returns the empirical probability of outcome v.
func (d *Dist) Prob(v BitString) float64 {
	if d.total == 0 {
		return 0
	}
	return d.counts[v] / d.total
}

// Support returns the number of distinct observed outcomes.
func (d *Dist) Support() int { return len(d.counts) }

// Outcomes returns the observed outcomes sorted ascending. Sorting makes
// every downstream iteration deterministic.
func (d *Dist) Outcomes() []BitString {
	return d.OutcomesInto(nil)
}

// OutcomesInto appends the observed outcomes, sorted ascending, to
// dst[:0] and returns the result — the allocation-free form of Outcomes
// for callers that keep a scratch slice across merges (slices.Sort
// avoids sort.Slice's interface boxing).
func (d *Dist) OutcomesInto(dst []BitString) []BitString {
	out := dst[:0]
	for v := range d.counts {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Each calls fn for every outcome/count pair in deterministic order.
func (d *Dist) Each(fn func(v BitString, count float64)) {
	for _, v := range d.Outcomes() {
		fn(v, d.counts[v])
	}
}

// Clone returns a deep copy.
func (d *Dist) Clone() *Dist {
	c := NewDist(d.n)
	for k, v := range d.counts {
		c.counts[k] = v
	}
	c.total = d.total
	return c
}

// Top returns the outcome with the largest count. ok is false for an empty
// distribution. Ties break toward the smaller value for determinism.
func (d *Dist) Top() (v BitString, ok bool) {
	var best BitString
	bestC := math.Inf(-1)
	for _, o := range d.Outcomes() {
		if c := d.counts[o]; c > bestC {
			best, bestC = o, c
		}
	}
	return best, len(d.counts) > 0
}

// Normalized returns a copy scaled so counts sum to total.
func (d *Dist) Normalized(total float64) *Dist {
	c := NewDist(d.n)
	if d.total == 0 {
		return c
	}
	scale := total / d.total
	for k, v := range d.counts {
		c.counts[k] = v * scale
	}
	c.total = total
	return c
}

// StringCounts renders the distribution as a textual-outcome map, the shape
// vendor SDKs use.
func (d *Dist) StringCounts() map[string]float64 {
	m := make(map[string]float64, len(d.counts))
	for k, v := range d.counts {
		m[Format(k, d.n)] = v
	}
	return m
}

// Marginal traces out all qubits not in keep: result bit i is input bit
// keep[i]. Counts of outcomes that collide after the projection merge.
func (d *Dist) Marginal(keep []int) (*Dist, error) {
	if len(keep) == 0 || len(keep) > d.n {
		return nil, fmt.Errorf("bitstring: marginal over %d of %d qubits", len(keep), d.n)
	}
	seen := make(map[int]bool, len(keep))
	for _, q := range keep {
		if q < 0 || q >= d.n {
			return nil, fmt.Errorf("bitstring: marginal qubit %d outside [0,%d)", q, d.n)
		}
		if seen[q] {
			return nil, fmt.Errorf("bitstring: marginal qubit %d repeated", q)
		}
		seen[q] = true
	}
	out := NewDist(len(keep))
	for _, v := range d.Outcomes() {
		var m BitString
		for i, q := range keep {
			if v.Bit(q) == 1 {
				m |= 1 << uint(i)
			}
		}
		out.Add(m, d.counts[v])
	}
	return out, nil
}

// HammingSpectrum buckets the distribution by Hamming distance from center:
// element k of the result is the total probability mass at distance k.
func (d *Dist) HammingSpectrum(center BitString) []float64 {
	spec := make([]float64, d.n+1)
	if d.total == 0 {
		return spec
	}
	for _, v := range d.Outcomes() {
		spec[Hamming(v, center)] += d.counts[v] / d.total
	}
	return spec
}

// ExpectedHamming returns the expected Hamming distance from center under
// the distribution (the paper's EHD statistic).
func (d *Dist) ExpectedHamming(center BitString) float64 {
	if d.total == 0 {
		return 0
	}
	var s float64
	for _, v := range d.Outcomes() {
		s += float64(Hamming(v, center)) * d.counts[v]
	}
	return s / d.total
}

// Entropy returns the Shannon entropy of the distribution in bits.
func (d *Dist) Entropy() float64 {
	if d.total == 0 {
		return 0
	}
	var h float64
	for _, v := range d.Outcomes() {
		p := d.counts[v] / d.total
		h -= p * math.Log2(p)
	}
	return h
}

// Fidelity computes the classical (Bhattacharyya) fidelity between two
// distributions over the same register: F = (Σ_i sqrt(p_i q_i))².
// This is the fidelity definition the paper uses to compare ideal and
// observed outputs.
func Fidelity(p, q *Dist) float64 {
	if p.total == 0 || q.total == 0 {
		return 0
	}
	var s float64
	for _, v := range p.Outcomes() {
		if qc, ok := q.counts[v]; ok {
			s += math.Sqrt(p.counts[v] / p.total * qc / q.total)
		}
	}
	return s * s
}

// Hellinger computes the Hellinger distance between two distributions:
// H = sqrt(1 - Σ sqrt(p_i q_i)), in [0, 1].
func Hellinger(p, q *Dist) float64 {
	bc := math.Sqrt(Fidelity(p, q))
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// HellingerVec computes the Hellinger distance between two probability
// vectors of equal length (used for Hamming-spectrum comparisons). Vectors
// are normalized internally; zero-mass vectors yield distance 1.
func HellingerVec(p, q []float64) float64 {
	var sp, sq float64
	for _, v := range p {
		sp += v
	}
	for _, v := range q {
		sq += v
	}
	if sp == 0 || sq == 0 {
		return 1
	}
	var bc float64
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		if p[i] > 0 && q[i] > 0 {
			bc += math.Sqrt(p[i] / sp * q[i] / sq)
		}
	}
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// TVD computes the total variation distance between two distributions.
func TVD(p, q *Dist) float64 {
	seen := make(map[BitString]bool, len(p.counts)+len(q.counts))
	var s float64
	for _, v := range p.Outcomes() {
		seen[v] = true
		s += math.Abs(p.Prob(v) - q.Prob(v))
	}
	for _, v := range q.Outcomes() {
		if !seen[v] {
			s += q.Prob(v)
		}
	}
	return s / 2
}
