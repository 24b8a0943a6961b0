package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
)

// EdgeWeighter maps a Hamming distance to a reclassification weight. The
// production model is PoissonEdges (Eq. 4); InverseDistanceEdges reproduces
// HAMMER's fixed local weighting inside the same iterative engine, used by
// the edge-model ablation.
type EdgeWeighter interface {
	// Weight returns the edge weight for two strings at Hamming distance
	// d >= 1. Weights below the state-graph threshold ε prune the edge.
	Weight(d int) float64
	// MaxRadius returns the largest distance worth considering for the
	// threshold eps (edges beyond it are guaranteed below threshold).
	MaxRadius(eps float64, n int) int
}

// PoissonEdges weighs edges by the Poisson pmf at the strings' Hamming
// distance, with rate λ estimated pre-induction via Eq. 2.
type PoissonEdges struct {
	Lambda float64
}

// Weight implements EdgeWeighter.
func (p PoissonEdges) Weight(d int) float64 {
	return mathx.Poisson{Lambda: p.Lambda}.PMF(d)
}

// MaxRadius implements EdgeWeighter via the Poisson tail cutoff.
func (p PoissonEdges) MaxRadius(eps float64, n int) int {
	r := mathx.Poisson{Lambda: p.Lambda}.TailCutoff(eps)
	if r > n {
		return n
	}
	return r
}

// InverseDistanceEdges is the HAMMER-style one-size-fits-all local
// weighting: weight 2^(-d) truncated at MaxD (HAMMER's published
// neighborhood stops at the second Hamming shell), independent of circuit
// and device. A zero MaxD selects the default of 2.
type InverseDistanceEdges struct {
	MaxD int
}

func (w InverseDistanceEdges) maxD() int {
	if w.MaxD <= 0 {
		return 2
	}
	return w.MaxD
}

// Weight implements EdgeWeighter.
func (w InverseDistanceEdges) Weight(d int) float64 {
	if d < 0 || d > w.maxD() {
		return 0
	}
	v := 1.0
	for i := 0; i < d; i++ {
		v /= 2
	}
	return v
}

// MaxRadius implements EdgeWeighter.
func (w InverseDistanceEdges) MaxRadius(eps float64, n int) int {
	for d := 1; d <= n; d++ {
		if w.Weight(d) < eps {
			return d
		}
	}
	return n
}

// node is one state-graph vertex: an observed bit-string with its
// (fractional) observation count. Probabilities derive from counts on
// demand.
type node struct {
	value bitstring.BitString
	count float64
}

// edge connects two vertices with the model weight of their distance.
// Edges are stored in canonical ascending (a, b) order with a < b.
type edge struct {
	a, b   int // node indices
	weight float64
}

// StateGraph is the Bayesian network over observed bit-strings (paper
// §3.4, Fig. 5): vertices are the observed outcomes, edges link pairs whose
// model weight passes the ε threshold.
//
// The adjacency is laid out in CSR form (adjStart/adjEdges) and the Step
// working set lives in a reusable scratch struct, so the 20-iteration
// mitigation loop is allocation-free after the first call. A graph built
// for mitigation alone may carry no edge list at all: when the cost rule
// picks the Walsh–Hadamard operator (operator.go), only the exact edge
// count is kept.
type StateGraph struct {
	n          int
	nodes      []node
	edges      []edge
	adjStart   []int32 // CSR row offsets: vertex i's incident edges are adjEdges[adjStart[i]:adjStart[i+1]]
	adjEdges   []int32 // flat incident-edge indices, ascending within each vertex
	numEdges   int     // exact edge count; len(edges) whenever the edges are materialized
	total      float64
	radius     int
	selfWeight float64   // model weight at distance 0 (the "stay" term)
	kernel     []float64 // stored edge weight by distance (weightTable.perString)
	pruned     int       // candidate pairs within the scan radius dropped by the ε threshold
	op         operatorForm
	scratch    stepScratch
}

func validateBuild(counts *bitstring.Dist, w EdgeWeighter, eps float64) error {
	if counts == nil || counts.Support() == 0 {
		return fmt.Errorf("core: empty counts")
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("core: epsilon %v outside (0,1)", eps)
	}
	if w == nil {
		return fmt.Errorf("core: nil edge weighter")
	}
	return nil
}

// initStateGraph allocates the vertex set (one node per observed outcome,
// ascending) and resolves the model radius. It returns the node values as
// a flat slice for the edge scan's cache-friendly inner loop.
func initStateGraph(counts *bitstring.Dist, w EdgeWeighter, eps float64) (*StateGraph, []bitstring.BitString) {
	g := &StateGraph{n: counts.Width(), total: counts.Total(), selfWeight: w.Weight(0)}
	outcomes := counts.Outcomes()
	g.nodes = make([]node, len(outcomes))
	vals := make([]bitstring.BitString, len(outcomes))
	for i, o := range outcomes {
		g.nodes[i] = node{value: o, count: counts.Count(o)}
		vals[i] = o
	}
	g.radius = w.MaxRadius(eps, g.n)
	return g, vals
}

// buildCSRCounted finishes the CSR layout from precomputed degrees
// (vertex i's degree at index i+1 — the layout scanEdges tallies while
// materializing edges, saving a counting pass over the edge list). Takes
// ownership of counts as the offset array.
func (g *StateGraph) buildCSRCounted(counts []int32) {
	nV := len(g.nodes)
	g.adjStart = counts
	for i := 0; i < nV; i++ {
		g.adjStart[i+1] += g.adjStart[i]
	}
	g.adjEdges = make([]int32, 2*len(g.edges))
	next := make([]int32, nV)
	copy(next, g.adjStart[:nV])
	for ei, e := range g.edges {
		g.adjEdges[next[e.a]] = int32(ei)
		next[e.a]++
		g.adjEdges[next[e.b]] = int32(ei)
		next[e.b]++
	}
}

// BuildStateGraphCtx constructs the graph from raw counts under the given
// edge model and threshold. Vertices are created only for observed
// (non-zero) outcomes, so the graph scales with shots, not with 2^n.
//
// Edge creation is thresholded on the model's shell mass w(d) >= ε (the
// paper's scalability rule), but the stored weight is the per-string
// likelihood w(d)/C(n,d): the model assigns mass w(d) to the whole
// distance-d shell, and an individual string is one of C(n,d)
// equally-likely landing sites. Without this normalization the
// combinatorially-large middle shells would out-pull the true solution.
//
// Discovery is a popcount-bucketed scan, a Hamming-ball walk or a
// split-half run scan, whichever the cost rule estimates cheapest,
// instead of the O(V²) pairwise scan — see edgescan.go — and the output
// is bit-for-bit identical to that serial scan.
//
// workers caps the edge-scan worker count (<= 0 selects GOMAXPROCS). The
// result is independent of the worker count: vertex ranges emit their
// edges in canonical ascending (a, b) order and are concatenated in
// range order, so the edge array — and every downstream Step — never
// depends on scheduling.
//
// The "core.graph.build" span becomes a child of the span active in ctx,
// and the parallel edge scan's worker spans parent under it. The edges
// are always materialized (for WriteDOT and edge-level inspection); Step
// on the returned graph picks the same operator form MitigateCtx does,
// so iterating it reproduces MitigateCtx bit for bit.
func BuildStateGraphCtx(ctx context.Context, counts *bitstring.Dist, w EdgeWeighter, eps float64, workers int) (*StateGraph, error) {
	return buildStateGraphCtx(ctx, counts, w, eps, workers, scanAuto, true)
}

// buildStateGraphCtx builds the graph and fixes its operator form. With
// needEdges false (the mitigation loop, which only iterates), a graph
// the cost rule sends to the Walsh–Hadamard form skips the edge scan: its
// exact edge and pruned counts come from the support's pair-count
// transform instead, so every count it reports is the scan's.
func buildStateGraphCtx(ctx context.Context, counts *bitstring.Dist, w EdgeWeighter, eps float64, workers int, strat scanStrategy, needEdges bool) (*StateGraph, error) {
	if err := validateBuild(counts, w, eps); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "core.graph.build")
	t0 := time.Now() //qbeep:allow-time span/metric timing, not kernel state
	g, vals := initStateGraph(counts, w, eps)
	tab := newWeightTable(w, eps, g.n, g.radius)
	// Scan only to the effective radius: the model's tail cutoff always
	// ends in at least one shell that fails ε, and such dead boundary
	// shells are the largest by far. Edges are unaffected (those shells
	// cannot produce any); only the pruned tally narrows its scope.
	g.radius = tab.effectiveRadius()
	g.kernel = tab.perString[:g.radius+1]
	used := scanWHT
	if needEdges || !g.countForWHT(vals) {
		var deg []int32
		g.edges, deg, g.pruned, used = scanEdges(ctx, vals, g.n, g.radius, tab, workers, strat)
		g.buildCSRCounted(deg)
		g.numEdges = len(g.edges)
		g.op = chooseOperator(g.n, g.numEdges)
	}
	elapsed := time.Since(t0) //qbeep:allow-time span/metric timing, not kernel state
	metGraphBuild.ObserveDuration(elapsed)
	metGraphVerts.Set(float64(len(g.nodes)))
	metGraphEdges.Set(float64(g.numEdges))
	metGraphPruned.Set(float64(g.pruned))
	metGraphRadius.Set(float64(g.radius))
	switch used {
	case scanSphere:
		metGraphScanSphere.Inc()
	case scanBucket:
		metGraphScanBucket.Inc()
	case scanSplit:
		metGraphScanSplit.Inc()
	}
	sp.SetAttr("vertices", len(g.nodes))
	sp.SetAttr("edges", g.numEdges)
	sp.SetAttr("pruned", g.pruned)
	sp.SetAttr("strategy", used.String())
	sp.SetAttr("operator", g.op.String())
	sp.End()
	// Gated on the level check: assembling the key/value list boxes a
	// dozen arguments, a measurable slice of the per-build allocations
	// when debug logging is off (the default).
	if l := obs.Logger(); l.Enabled(ctx, slog.LevelDebug) {
		l.Debug("state graph built",
			"vertices", len(g.nodes), "edges", g.numEdges, "pruned", g.pruned,
			"radius", g.radius, "width", g.n, "strategy", used.String(), "operator", g.op.String(),
			"elapsed", elapsed)
	}
	return g, nil
}

// countForWHT settles the operator form before any edge is built. When
// the cost rule already rejects the Walsh–Hadamard form at an upper bound
// on E it returns false without allocating; otherwise it counts the exact
// edges and pruned pairs by transform and, if the rule still picks the
// Walsh–Hadamard form at the exact E, records them and returns true.
func (g *StateGraph) countForWHT(vals []bitstring.BitString) bool {
	if chooseOperator(g.n, edgeUpperBound(g.n, len(vals), g.radius)) != opWHT {
		return false
	}
	pairs := pairCounts(vals, g.n)
	edges, pruned := 0, 0
	for d := 1; d <= g.radius; d++ {
		if g.kernel[d] != 0 {
			edges += int(pairs[d])
		} else {
			pruned += int(pairs[d])
		}
	}
	if chooseOperator(g.n, edges) != opWHT {
		return false
	}
	g.numEdges, g.pruned, g.op = edges, pruned, opWHT
	return true
}

// NumVertices returns the vertex count.
func (g *StateGraph) NumVertices() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *StateGraph) NumEdges() int { return g.numEdges }

// Radius returns the maximum Hamming distance spanned by edges: the
// largest shell whose model weight passes the ε threshold.
func (g *StateGraph) Radius() int { return g.radius }

// Degree returns the number of edges incident to vertex i.
func (g *StateGraph) Degree(i int) int {
	return int(g.adjStart[i+1] - g.adjStart[i])
}

// IncidentEdges returns the indices of the edges incident to vertex i,
// ascending. The slice aliases the graph's CSR storage — callers must
// not modify it.
func (g *StateGraph) IncidentEdges(i int) []int32 {
	return g.adjEdges[g.adjStart[i]:g.adjStart[i+1]]
}

// Dist snapshots the current vertex counts as a distribution, pre-sized
// to the vertex count so million-vertex snapshots insert without rehash.
func (g *StateGraph) Dist() *bitstring.Dist {
	d := bitstring.NewDistCap(g.n, len(g.nodes))
	for _, nd := range g.nodes {
		if nd.count > 0 {
			d.Add(nd.value, nd.count)
		}
	}
	return d
}

// Fidelity computes the classical (Bhattacharyya) fidelity between ideal
// and the graph's current counts without materializing an intermediate
// Dist — the tracked-mitigation loop calls it once per iteration, and
// the snapshot Dist used to be that loop's dominant allocation. Nodes
// are stored ascending and the operand order matches bitstring.Fidelity,
// so the result equals bitstring.Fidelity(ideal, g.Dist()).
func (g *StateGraph) Fidelity(ideal *bitstring.Dist) float64 {
	if ideal == nil || ideal.Total() == 0 || g.total <= 0 {
		return 0
	}
	var s float64
	for i := range g.nodes {
		c := g.nodes[i].count
		if c <= 0 {
			continue
		}
		if q := ideal.Count(g.nodes[i].value); q > 0 {
			s += math.Sqrt(q / ideal.Total() * c / g.total)
		}
	}
	return s * s
}

// Hellinger computes the Hellinger distance between ideal and the
// graph's current counts, H = sqrt(1 − Σ sqrt(p q)), straight off the
// node slice like Fidelity; it equals bitstring.Hellinger(ideal,
// g.Dist()). The tracked-mitigation loop records it per iteration.
func (g *StateGraph) Hellinger(ideal *bitstring.Dist) float64 {
	return hellingerFromFidelity(g.Fidelity(ideal))
}

// hellingerFromFidelity converts a Bhattacharyya fidelity F = BC² into
// the Hellinger distance sqrt(1 − BC), mirroring bitstring.Hellinger.
func hellingerFromFidelity(f float64) float64 {
	bc := math.Sqrt(f)
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// stepScratch holds Step's working set, sized once per graph so the
// iteration loop performs no allocations after the first call.
//
//qbeep:pooled
type stepScratch struct {
	prob, z, r, wr, outflow, scale []float64 // per vertex
	cube                           []float64 // 2ⁿ transform buffer (Walsh–Hadamard form only)
	spectrum                       []float64 // kernel eigenvalues by popcount, /2ⁿ (Walsh–Hadamard form only)
}

func (s *stepScratch) ensure(g *StateGraph) {
	nV := len(g.nodes)
	if cap(s.prob) < nV {
		s.prob = make([]float64, nV)
		s.z = make([]float64, nV)
		s.r = make([]float64, nV)
		s.wr = make([]float64, nV)
		s.outflow = make([]float64, nV)
		s.scale = make([]float64, nV)
	}
	s.prob = s.prob[:nV]
	s.z = s.z[:nV]
	s.r = s.r[:nV]
	s.wr = s.wr[:nV]
	s.outflow = s.outflow[:nV]
	s.scale = s.scale[:nV]
	if g.op == opWHT && s.spectrum == nil {
		s.cube = make([]float64, 1<<uint(g.n))
		s.spectrum = kernelSpectrum(g.n, g.kernel)
	}
}

// Step performs one reclassification iteration with learning rate eta
// (paper Algorithm 1, inner loop). Each node redistributes its counts
// according to the normalized Bayesian posterior of Eq. 4: an observation
// of A belongs to neighbor B with probability
//
//	P(A→B) = w_AB·P_B / (w_0·P_A + Σ_C w_AC·P_C)
//
// where w_0 is the model weight at distance 0 — the "observation is
// genuine" hypothesis — and the denominator normalizes the posterior over
// all hypotheses for node A. The learning rate scales the moved fraction
// (paper: η = 1/iteration to prevent cycling between local nodes); the
// reclassification-overflow cap of Algorithm 1 guards η > 1 ablations.
//
// This posterior form is what makes the fixed point entropy-aware: on a
// balanced (high-entropy) distribution the in/out flows cancel and the
// distribution is left alone, while a small error node adjacent to a
// dominant string hands essentially all of its counts over — the behavior
// §5 of the paper describes.
//
// The per-edge flows never materialize. With Z = w_0·P + W·P and
// r_A = η·count_A / Z_A, A's outflow is r_A·(W·P)_A and its inflow
// P_A·(W·r)_A, so one Step is two products with the weight matrix W
// (operator.go), plus a third, W·(r∘scale), only when the overflow cap
// binds.
//
// All working vectors live in the graph's scratch struct: after the first
// call, Step allocates nothing (pinned by TestStepAllocationFree).
//
// The returned StepStats reports how much mass actually moved, so callers
// can observe convergence without re-diffing distributions.
//
//qbeep:allocfree
func (g *StateGraph) Step(eta float64) StepStats {
	if g.total <= 0 {
		return StepStats{}
	}
	g.scratch.ensure(g)
	s := &g.scratch
	prob, z, r, wr, outflow, scale := s.prob, s.z, s.r, s.wr, s.outflow, s.scale
	w0 := g.selfWeight
	// Posterior normalizer per node: Z_A = w_0·P_A + Σ w_AC·P_C.
	for i := range g.nodes {
		prob[i] = g.nodes[i].count / g.total
		z[i] = w0 * prob[i]
	}
	g.apply(prob, z)
	for i := range r {
		r[i] = 0
		if z[i] > 0 {
			r[i] = eta * g.nodes[i].count / z[i]
		}
		outflow[i] = r[i] * (z[i] - w0*prob[i])
		wr[i] = 0
	}
	g.apply(r, wr)
	// Reclassification overflow: cap outflow at count + inflow (paper
	// Algorithm 1). With eta <= 1 the posterior normalization already
	// keeps outflow <= count, so the cap only binds in ablations.
	capped := false
	for i := range scale {
		scale[i] = 1
		if limit := g.nodes[i].count + prob[i]*wr[i]; outflow[i] > limit && outflow[i] > 0 {
			scale[i] = limit / outflow[i]
			capped = true
		}
	}
	if capped {
		for i := range r {
			r[i] *= scale[i]
			wr[i] = 0
		}
		g.apply(r, wr)
	}
	// The update pass also accumulates the Bhattacharyya overlap between
	// the pre- and post-step counts, yielding the per-iteration Hellinger
	// delta (the Options.ConvergeTol signal) without a second scan. It
	// only reads the counts, so the update itself stays bit-identical to
	// the fixed-schedule path.
	var st StepStats
	prevTotal := g.total
	var bcSum float64
	g.total = 0
	for i := range g.nodes {
		out := scale[i] * outflow[i]
		st.FlowMoved += out
		c := g.nodes[i].count + (prob[i]*wr[i] - out)
		if c < 0 {
			st.Clamped -= c
			c = 0
		}
		if d := c - g.nodes[i].count; d >= 0 {
			st.L1Delta += d
		} else {
			st.L1Delta -= d
		}
		bcSum += math.Sqrt(g.nodes[i].count * c)
		g.nodes[i].count = c
		g.total += c
	}
	if prevTotal > 0 && g.total > 0 {
		bc := bcSum / math.Sqrt(prevTotal*g.total)
		if bc > 1 {
			bc = 1
		}
		st.Hellinger = math.Sqrt(1 - bc)
	} else if prevTotal > 0 || g.total > 0 {
		st.Hellinger = 1
	}
	return st
}

// StepStats summarizes one reclassification iteration.
type StepStats struct {
	// FlowMoved is the gross mass carried along edges (both directions,
	// after the overflow cap).
	FlowMoved float64
	// L1Delta is Σ_i |Δcount_i|: the net per-vertex change actually
	// applied, the natural convergence signal (≈ 0 at the fixed point).
	L1Delta float64
	// Hellinger is the Hellinger distance between the pre- and post-step
	// normalized distributions — the per-iteration delta that
	// Options.ConvergeTol compares against for adaptive early exit.
	Hellinger float64
	// Clamped is the mass the update removed by flooring negative counts
	// at zero (0 unless an overflow-capped or roundoff-negative update
	// drove a vertex below zero).
	Clamped float64
}

// Vertices returns the observed strings sorted ascending (testing/debug).
func (g *StateGraph) Vertices() []bitstring.BitString {
	out := make([]bitstring.BitString, len(g.nodes))
	for i, nd := range g.nodes {
		out[i] = nd.value
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
