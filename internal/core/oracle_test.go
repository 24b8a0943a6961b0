package core

// Reference implementations the engine is tested against. None of them
// runs in production: the serial O(V²) pair scan is the oracle for the
// edge-discovery engine (edgescan.go), and the three-pass per-edge Step
// is the oracle for both forms of the Hamming-kernel operator
// (operator.go).

import (
	"math"

	"qbeep/internal/bitstring"
)

// bruteScanEdges is the seed's serial O(V²) pairwise scan, kept verbatim
// as the reference implementation. It deliberately re-derives every
// per-pair quantity through the EdgeWeighter the way the original code
// did, so it stays an independent oracle for the engine.
func bruteScanEdges(vals []bitstring.BitString, n, radius int, w EdgeWeighter, eps float64) ([]edge, int) {
	var edges []edge
	var pruned int
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			d := bitstring.Hamming(vals[i], vals[j])
			if d > radius {
				continue
			}
			wt := w.Weight(d)
			if wt < eps {
				pruned++
				continue
			}
			edges = append(edges, edge{a: i, b: j, weight: wt / float64(bitstring.SphereSize(n, d))})
		}
	}
	return edges, pruned
}

// buildStateGraphBrute runs the seed's serial O(V²) reference scan (see
// bruteScanEdges). Kept as the oracle for the equivalence tests and the
// baseline for BenchmarkBuildStateGraphBrute. The operator form follows
// the same cost rule as the engine's graphs, so Step on it is comparable
// bit for bit with Mitigate.
func buildStateGraphBrute(counts *bitstring.Dist, w EdgeWeighter, eps float64) (*StateGraph, error) {
	if err := validateBuild(counts, w, eps); err != nil {
		return nil, err
	}
	g, vals := initStateGraph(counts, w, eps)
	g.edges, g.pruned = bruteScanEdges(vals, g.n, g.radius, w, eps)
	g.buildCSR()
	g.kernel = newWeightTable(w, eps, g.n, g.radius).perString
	g.numEdges = len(g.edges)
	g.op = chooseOperator(g.n, g.numEdges)
	return g, nil
}

// buildCSR lays the oracle's vertex→incident-edge adjacency out from its
// edge list: one counting pass, then the engine's buildCSRCounted. The
// engine tallies degrees during the scan and never needs it.
func (g *StateGraph) buildCSR() {
	counts := make([]int32, len(g.nodes)+1)
	for _, e := range g.edges {
		counts[e.a+1]++
		counts[e.b+1]++
	}
	g.buildCSRCounted(counts)
}

// stepOracle is the three-pass per-edge Step the two-product form
// replaced, kept verbatim apart from its scratch: a z pass, a flow pass
// that stores both directions of every edge, and a delta pass that
// applies the overflow cap per edge. It needs the materialized edge
// list and ignores the graph's operator form.
func (g *StateGraph) stepOracle(eta float64) StepStats {
	if g.total <= 0 {
		return StepStats{}
	}
	nV := len(g.nodes)
	prob := make([]float64, nV)
	for i := range g.nodes {
		prob[i] = g.nodes[i].count / g.total
	}
	// Posterior normalizer per node: Z_A = w_0·P_A + Σ w_AC·P_C.
	z := make([]float64, nV)
	for i := range z {
		z[i] = g.selfWeight * prob[i]
	}
	for _, e := range g.edges {
		z[e.a] += e.weight * prob[e.b]
		z[e.b] += e.weight * prob[e.a]
	}
	outflow, inflow := make([]float64, nV), make([]float64, nV)
	flowAB, flowBA := make([]float64, len(g.edges)), make([]float64, len(g.edges))
	for ei, e := range g.edges {
		var fab, fba float64
		if z[e.a] > 0 {
			fab = eta * g.nodes[e.a].count * e.weight * prob[e.b] / z[e.a]
			outflow[e.a] += fab
			inflow[e.b] += fab
		}
		if z[e.b] > 0 {
			fba = eta * g.nodes[e.b].count * e.weight * prob[e.a] / z[e.b]
			outflow[e.b] += fba
			inflow[e.a] += fba
		}
		flowAB[ei] = fab
		flowBA[ei] = fba
	}
	scale := make([]float64, nV)
	for i := range scale {
		scale[i] = 1
		if limit := g.nodes[i].count + inflow[i]; outflow[i] > limit && outflow[i] > 0 {
			scale[i] = limit / outflow[i]
		}
	}
	delta := make([]float64, nV)
	var st StepStats
	for ei, e := range g.edges {
		fab := flowAB[ei] * scale[e.a]
		fba := flowBA[ei] * scale[e.b]
		delta[e.a] += fba - fab
		delta[e.b] += fab - fba
		st.FlowMoved += fab + fba
	}
	prevTotal := g.total
	var bcSum float64
	g.total = 0
	for i := range g.nodes {
		c := g.nodes[i].count + delta[i]
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
