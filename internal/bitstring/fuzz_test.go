package bitstring

import (
	"math"
	"testing"
)

// FuzzDistFromCounts hardens the untrusted boundary of the counts
// model: FromStringCounts consumes vendor result dictionaries
// ({"0101": 17, ...}), so arbitrary keys and counts must never panic,
// a negative count must be rejected rather than floored away, and any
// distribution it accepts must satisfy the Dist invariants the
// mitigation core leans on — strictly sorted positive-count outcomes, a
// total equal to the outcome sum, and a lossless string round trip.
func FuzzDistFromCounts(f *testing.F) {
	f.Add("0101", 17.0, "0110", 2.5)
	f.Add("0", 1.0, "1", 0.0)
	f.Add("0011", -3.0, "0011", 2.0)
	f.Add("0011", -3.0, "1100", 2.0)
	f.Add("01x1", 1.0, "", 1.0)
	f.Add("1111111111111111111111111111111111111111111111111111111111111111", 1.0, "0", 2.0)
	f.Add("10", math.NaN(), "01", math.Inf(1))
	f.Fuzz(func(t *testing.T, k1 string, c1 float64, k2 string, c2 float64) {
		counts := map[string]float64{k1: c1, k2: c2}
		d, err := FromStringCounts(counts)
		if err != nil {
			return // rejection is fine; panics are not
		}
		for s, c := range counts {
			if c < 0 {
				t.Fatalf("accepted negative count %v for outcome %q", c, s)
			}
		}
		n := d.Width()
		if n <= 0 || n > 64 {
			t.Fatalf("accepted width %d outside (0, 64]", n)
		}
		outs := d.Outcomes()
		if len(outs) != d.Support() {
			t.Fatalf("Outcomes len %d != Support %d", len(outs), d.Support())
		}
		var sum float64
		for i, v := range outs {
			if i > 0 && outs[i-1] >= v {
				t.Fatalf("Outcomes not strictly sorted: %v", outs)
			}
			c := d.Count(v)
			if !(c > 0) {
				t.Fatalf("stored outcome %s has non-positive count %v", Format(v, n), c)
			}
			sum += c
		}
		if !approxEqual(sum, d.Total()) {
			t.Fatalf("Total %v != outcome sum %v", d.Total(), sum)
		}
		if d.Support() == 0 {
			return
		}
		back, err := FromStringCounts(d.StringCounts())
		if err != nil {
			t.Fatalf("round trip through StringCounts rejected: %v", err)
		}
		if back.Width() != n || back.Support() != d.Support() || !approxEqual(back.Total(), d.Total()) {
			t.Fatalf("round trip changed shape: width %d->%d support %d->%d total %v->%v",
				n, back.Width(), d.Support(), back.Support(), d.Total(), back.Total())
		}
	})
}

func approxEqual(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}
