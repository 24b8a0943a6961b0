package core

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
)

// FuzzMitigate checks the oracle-free properties of the paper's model on
// both operator forms, over fuzzer-chosen widths, λ, ε, ConvergeTol
// and count vectors with zeros and extreme magnitudes:
//
//   - the output is finite, non-negative and carries the input's mass;
//   - scaling every count by c scales the output by c;
//   - XOR-relabelling the strings (x → x⊕m) or permuting their bits
//     relabels the output the same way;
//   - the two forms agree with each other.
//
// Comparisons are normwise relative to 1e-9: relabelling reorders the
// summation, and the forms sum differently. A ConvergeTol exit that
// lands on a different iteration in the two runs (a Hellinger delta
// within roundoff of the tolerance) is a legitimate discontinuity, so
// such pairs are not compared.
func FuzzMitigate(f *testing.F) {
	f.Add(uint64(1), uint8(6), 1.5, 0.05, 0.0, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint64(2), uint8(10), 2.6, 0.05, 0.0, []byte("dense-ish register with many outcomes 0123456789abcdef"))
	f.Add(uint64(3), uint8(8), 0.7, 0.02, 0.01, []byte{255, 254, 0, 0, 128, 7, 64, 33, 9, 1})
	f.Add(uint64(4), uint8(4), 4.0, 0.3, 0.001, []byte{1, 4, 2, 4, 3, 4, 15, 0})
	f.Add(uint64(5), uint8(9), 1.2, 0.05, 0.0, []byte{10, 1, 11, 2, 12, 3, 200, 4, 201, 0, 99, 4})
	f.Fuzz(func(t *testing.T, seed uint64, width uint8, lambda, eps, tol float64, raw []byte) {
		n := 2 + int(width)%9
		counts := fuzzCounts(n, raw)
		if counts.Support() == 0 {
			return
		}
		opts := NewOptions()
		opts.Epsilon = 0.001 + math.Mod(math.Abs(finiteOr(eps, 0.05)), 0.5)
		if tol = math.Abs(finiteOr(tol, 0)); tol < 0.05 {
			opts.ConvergeTol = tol
		}
		lambda = math.Mod(math.Abs(finiteOr(lambda, 1)), 6)
		rng := mathx.NewRNG(seed)
		mask := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))
		perm := rng.Perm(n)
		scale := 0.5 + 1000*rng.Float64()

		run := func(form operatorForm, d *bitstring.Dist) (*bitstring.Dist, int) {
			t.Helper()
			var out *bitstring.Dist
			iters := 0
			o := opts
			o.OnIteration = func(IterationStats) { iters++ }
			withOperator(t, form, func() {
				var err error
				if out, err = MitigateCtx(context.Background(), d, lambda, o); err != nil {
					t.Fatalf("form=%s: %v", form, err)
				}
			})
			checkOutput(t, form, d, out)
			return out, iters
		}
		var first *bitstring.Dist
		firstIters := 0
		for _, form := range []operatorForm{opEdges, opWHT} {
			out, iters := run(form, counts)
			if first == nil {
				first, firstIters = out, iters
			} else if iters == firstIters {
				distsClose(t, "forms", first, out)
			}
			if s, it := run(form, mapDist(counts, func(v bitstring.BitString, c float64) (bitstring.BitString, float64) { return v, c * scale })); it == iters {
				distsClose(t, "scaled by c", mapDist(out, func(v bitstring.BitString, c float64) (bitstring.BitString, float64) { return v, c * scale }), s)
			}
			xor := func(v bitstring.BitString, c float64) (bitstring.BitString, float64) { return v ^ mask, c }
			if x, it := run(form, mapDist(counts, xor)); it == iters {
				distsClose(t, "xor relabel", mapDist(out, xor), x)
			}
			permute := func(v bitstring.BitString, c float64) (bitstring.BitString, float64) {
				var u bitstring.BitString
				for i, j := range perm {
					u |= (v >> uint(i) & 1) << uint(j)
				}
				return u, c
			}
			if p, it := run(form, mapDist(counts, permute)); it == iters {
				distsClose(t, "bit permutation", mapDist(out, permute), p)
			}
		}
	})
}

// fuzzCounts decodes a count vector: byte pairs (outcome, magnitude
// class), the class picking zero, an extreme or an ordinary count. At
// most 64 outcomes, so the total of the largest class stays finite.
func fuzzCounts(n int, raw []byte) *bitstring.Dist {
	classes := [...]float64{0, 1, 3, 17, 1e-300, 1e-9, 1e6, 1e300}
	d := bitstring.NewDist(n)
	for i := 0; i+1 < len(raw) && i < 128; i += 2 {
		d.Add(bitstring.BitString(raw[i])&(1<<uint(n)-1), classes[raw[i+1]%byte(len(classes))])
	}
	return d
}

func finiteOr(v, def float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return def
	}
	return v
}

// mapDist rewrites every outcome and count of d through f.
func mapDist(d *bitstring.Dist, f func(bitstring.BitString, float64) (bitstring.BitString, float64)) *bitstring.Dist {
	out := bitstring.NewDist(d.Width())
	for _, v := range d.Outcomes() {
		u, c := f(v, d.Count(v))
		out.Add(u, c)
	}
	return out
}

// checkOutput asserts the output is finite, non-negative and carries the
// input's mass.
func checkOutput(t *testing.T, form operatorForm, in, out *bitstring.Dist) {
	t.Helper()
	var sum float64
	for _, v := range out.Outcomes() {
		c := out.Count(v)
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			t.Fatalf("form=%s: count[%d] = %v", form, v, c)
		}
		sum += c
	}
	if math.Abs(sum-in.Total()) > 1e-9*in.Total() {
		t.Fatalf("form=%s: output mass %v, input %v", form, sum, in.Total())
	}
}

// distsClose asserts ‖got − want‖₂ <= 1e-9·‖want‖₂ over the union of
// both supports.
func distsClose(t *testing.T, label string, want, got *bitstring.Dist) {
	t.Helper()
	var num, den float64
	for _, v := range want.Outcomes() {
		d := got.Count(v) - want.Count(v)
		num += d * d
		den += want.Count(v) * want.Count(v)
	}
	for _, v := range got.Outcomes() {
		if want.Count(v) == 0 {
			num += got.Count(v) * got.Count(v)
		}
	}
	if math.Sqrt(num) > 1e-9*math.Sqrt(den) {
		t.Fatalf("%s: relative deviation %.3g", label, math.Sqrt(num/den))
	}
}
