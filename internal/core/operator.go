package core

// The Hamming-kernel operator. Eq. 4 weighs a pair of observed strings
// only by their Hamming distance (stored weight w(d)/C(n,d), zero below
// ε), so the state graph's weight matrix W is a convolution kernel over
// the 2ⁿ cube restricted to the observed support. Every mitigation update
// is expressed through one product with it, y += W·x over the vertex set
// (see Step), and the product has two interchangeable forms:
//
//   - the edge form: one serial pass over the canonical edge list;
//   - the Walsh–Hadamard form: scatter x into a 2ⁿ vector, transform,
//     multiply by the kernel's spectrum (which depends only on the
//     frequency's popcount: a Krawtchouk sum over the shell weights),
//     transform back and gather. It costs O(n·2ⁿ) whatever the edge
//     count and needs no edge list at all, so a mitigation run that
//     picks it skips the edge scan too (see buildStateGraphCtx).
//
// chooseOperator is the cost rule between them; DESIGN.md §17 records its
// calibration.

import (
	"math/bits"

	"qbeep/internal/bitstring"
)

// operatorForm names an implementation of the Hamming-kernel product.
type operatorForm uint8

const (
	// opAuto defers to the cost rule (the zero value of the test hook).
	opAuto operatorForm = iota
	// opEdges scatters over the materialized edge list.
	opEdges
	// opWHT convolves through the Walsh–Hadamard transform.
	opWHT
)

func (f operatorForm) String() string {
	switch f {
	case opEdges:
		return "edges"
	case opWHT:
		return "wht"
	default:
		return "auto"
	}
}

// whtMaxWidth caps the Walsh–Hadamard form's register width. Past it the
// 2ⁿ float64 buffer (8 MiB at n = 20) leaves the cache and every one of
// the n butterfly passes streams through memory, while edge counts large
// enough to pay for that are rare; the pair-count transform's int64
// arithmetic is also proven exact only up to this width (pairCounts).
const whtMaxWidth = 20

// whtMinEdges keeps small graphs on the edge form. The cost term alone
// would pick the Walsh–Hadamard form for narrow registers (n <= 10)
// from a few thousand edges, where a whole 20-iteration edge-form run
// takes at most about 2 ms; the floor keeps such graphs, and every
// small-circuit workload, from allocating 2ⁿ buffers for that.
const whtMinEdges = 1 << 14

// whtButterflyPerEdge is the calibrated cost ratio of the two forms: one
// butterfly of the transform (a load pair, an add and a subtract, a store
// pair, sequential) against one edge visit of the edge form (two
// multiply-adds at random vertex offsets). One product costs about
// n·2ⁿ butterflies (two transforms of n·2ⁿ⁻¹) in the Walsh–Hadamard form
// against E edge visits in the edge form. DESIGN.md §17 has the
// measurements behind the value.
const whtButterflyPerEdge = 0.5

// chooseOperator is the cost rule: the Walsh–Hadamard form when the
// register fits whtMaxWidth and the estimated transform cost undercuts E
// edge visits. It reads only properties of the input, is monotone in
// edges (so an upper bound on E that picks the edge form settles the
// choice without counting), and is deterministic, which is what keeps
// BuildStateGraphCtx + Step bitwise equal to MitigateCtx.
func chooseOperator(n, edges int) operatorForm {
	if n > whtMaxWidth {
		return opEdges
	}
	if operatorHook != opAuto {
		return operatorHook
	}
	if edges >= whtMinEdges && whtButterflyPerEdge*float64(n)*float64(uint64(1)<<uint(n)) < float64(edges) {
		return opWHT
	}
	return opEdges
}

// operatorHook forces a form past the cost rule (never past its
// structural conditions). Only tests set it, to drive both forms through
// the same inputs.
var operatorHook operatorForm

// apply adds W·x to y over the vertex set. x and y have one entry per
// vertex; x must be non-negative (the Walsh–Hadamard form relies on it).
//
//qbeep:allocfree
func (g *StateGraph) apply(x, y []float64) {
	if g.op == opWHT {
		g.applyWHT(x, y)
		return
	}
	g.applyEdges(x, y)
}

// applyEdges is the edge form: one pass over the canonical edge list.
//
//qbeep:allocfree
func (g *StateGraph) applyEdges(x, y []float64) {
	for _, e := range g.edges {
		y[e.a] += e.weight * x[e.b]
		y[e.b] += e.weight * x[e.a]
	}
}

// applyWHT is the Walsh–Hadamard form. With H the unnormalized transform
// (H² = 2ⁿ·I), W = H·diag(Λ)·H/2ⁿ, and the spectrum Λ already carries
// the 1/2ⁿ. W and x are non-negative, so W·x is too: negative roundoff
// in the gathered values is dropped rather than fed into the flow.
//
//qbeep:allocfree
func (g *StateGraph) applyWHT(x, y []float64) {
	cube, spec := g.scratch.cube, g.scratch.spectrum
	clear(cube)
	for i := range g.nodes {
		cube[g.nodes[i].value] = x[i]
	}
	fwht(cube)
	// The eigenvalue depends on the frequency's popcount: split it into
	// the block's high bits (once per block) and a byte-table low part.
	for base := 0; base < len(cube); base += 256 {
		blk := cube[base:min(base+256, len(cube))]
		sp := spec[bits.OnesCount(uint(base)):]
		for j := range blk {
			blk[j] *= sp[popcount8[j]]
		}
	}
	fwht(cube)
	for i := range g.nodes {
		if v := cube[g.nodes[i].value]; v > 0 {
			y[i] += v
		}
	}
}

// popcount8 is the popcount of every byte value.
var popcount8 = func() (t [256]uint8) {
	for i := range t {
		t[i] = uint8(bits.OnesCount8(uint8(i)))
	}
	return t
}()

// fwht applies the unnormalized Walsh–Hadamard transform in place;
// len(a) must be a power of two. Butterfly levels run two at a time
// (radix 4), halving the passes over a buffer that outgrows L1 at
// n ≈ 12; an odd level count ends with one radix-2 pass.
//
//qbeep:allocfree
func fwht[T int32 | float64](a []T) {
	h := 1
	for ; 4*h <= len(a); h <<= 2 {
		for i := 0; i < len(a); i += 4 * h {
			b0 := a[i : i+h]
			b1 := a[i+h : i+2*h][:len(b0)]
			b2 := a[i+2*h : i+3*h][:len(b0)]
			b3 := a[i+3*h : i+4*h][:len(b0)]
			for j := range b0 {
				s0, d0 := b0[j]+b1[j], b0[j]-b1[j]
				s1, d1 := b2[j]+b3[j], b2[j]-b3[j]
				b0[j], b1[j], b2[j], b3[j] = s0+s1, d0+d1, s0-s1, d0-d1
			}
		}
	}
	if h < len(a) {
		lo, hi := a[:h], a[h:2*h]
		hi = hi[:len(lo)]
		for j := range lo {
			lo[j], hi[j] = lo[j]+hi[j], lo[j]-hi[j]
		}
	}
}

// krawtchouk returns K[d][k] = Σ_j (−1)^j C(k,j) C(n−k,d−j) for
// 0 <= d, k <= n: the coefficient of x^d in (1−x)^k (1+x)^(n−k). Row d
// is the Walsh–Hadamard spectrum of the distance-d shell indicator at a
// frequency of popcount k, so any distance-only kernel diagonalizes as
// Σ_d K(d)·K[d][k].
func krawtchouk(n int) [][]int64 {
	out := make([][]int64, n+1)
	for d := range out {
		out[d] = make([]int64, n+1)
	}
	poly := make([]int64, n+1)
	for k := 0; k <= n; k++ {
		clear(poly)
		poly[0] = 1
		for m := 1; m <= n; m++ { // multiply by (1−x) k times, then (1+x)
			sign := int64(1)
			if m <= k {
				sign = -1
			}
			for d := m; d >= 1; d-- {
				poly[d] += sign * poly[d-1]
			}
		}
		for d := 0; d <= n; d++ {
			out[d][k] = poly[d]
		}
	}
	return out
}

// kernelSpectrum returns the Walsh–Hadamard eigenvalues of the weight
// matrix by frequency popcount, pre-divided by 2ⁿ: Λ(k) = Σ_d
// perString[d]·K[d][k] / 2ⁿ over the shells 1..radius (the diagonal is
// not part of W; Step adds the self weight itself).
func kernelSpectrum(n int, perString []float64) []float64 {
	kr := krawtchouk(n)
	inv := 1 / float64(uint64(1)<<uint(n))
	spec := make([]float64, n+1)
	for k := range spec {
		var s float64
		for d := 1; d < len(perString) && d <= n; d++ {
			s += perString[d] * float64(kr[d][k])
		}
		spec[k] = s * inv
	}
	return spec
}

// pairCounts returns, for each Hamming distance d in 0..n, the number of
// unordered pairs of distinct support strings at distance d — exactly,
// without enumerating a pair. With F = H·1_S the transform of the support
// indicator, the ordered pairs at distance d number
// Σ_k G(k)·K[d][k] / 2ⁿ, where G(k) sums F(s)² over frequencies of
// popcount k. All arithmetic is integer: |F| <= V, Σ_k G(k) = 2ⁿ·V by
// Parseval and |K[d][k]| <= C(n,d), so every partial sum stays below
// 2^(2n)·C(n, n/2) < 2^58 for n <= whtMaxWidth.
func pairCounts(vals []bitstring.BitString, n int) []int64 {
	f := make([]int32, 1<<uint(n))
	for _, v := range vals {
		f[v] = 1
	}
	fwht(f)
	power := make([]int64, n+1)
	for s, x := range f {
		power[bits.OnesCount(uint(s))] += int64(x) * int64(x)
	}
	kr := krawtchouk(n)
	out := make([]int64, n+1)
	for d := 1; d <= n; d++ {
		var acc int64
		for k, p := range power {
			acc += p * kr[d][k]
		}
		out[d] = acc >> uint(n) / 2
	}
	return out
}

// edgeUpperBound bounds the edge count of a support of nV strings with
// edges up to distance radius: no more than every pair, and no more than
// half of each vertex's Hamming ball. Past whtMaxWidth the products may
// overflow, but chooseOperator rejects those widths without reading it.
func edgeUpperBound(n, nV, radius int) int {
	return min(nV*(nV-1)/2, nV*int(ballCount(n, radius)-1)/2)
}
