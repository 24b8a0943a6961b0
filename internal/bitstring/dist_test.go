package bitstring

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDistBasics(t *testing.T) {
	d := NewDist(4)
	if d.Width() != 4 || d.Total() != 0 || d.Support() != 0 {
		t.Fatal("empty dist invariants violated")
	}
	d.Add(0b0001, 3)
	d.Add(0b0001, 2)
	d.Add(0b1000, 5)
	if d.Total() != 10 {
		t.Errorf("Total = %v", d.Total())
	}
	if d.Count(0b0001) != 5 {
		t.Errorf("Count = %v", d.Count(0b0001))
	}
	if !approx(d.Prob(0b1000), 0.5, 1e-12) {
		t.Errorf("Prob = %v", d.Prob(0b1000))
	}
	if d.Support() != 2 {
		t.Errorf("Support = %d", d.Support())
	}
}

func TestDistAddNegativeRemoves(t *testing.T) {
	d := NewDist(3)
	d.Add(1, 4)
	d.Add(1, -4)
	if d.Support() != 0 || d.Total() != 0 {
		t.Errorf("negative add should remove outcome: support=%d total=%v", d.Support(), d.Total())
	}
	d.Add(2, 4)
	d.Add(2, -10) // over-subtraction floors at removal
	if d.Count(2) != 0 {
		t.Errorf("Count after over-subtraction = %v", d.Count(2))
	}
}

func TestDistSet(t *testing.T) {
	d := NewDist(3)
	d.Set(5, 7)
	d.Set(5, 3)
	if d.Count(5) != 3 || d.Total() != 3 {
		t.Errorf("Set: count=%v total=%v", d.Count(5), d.Total())
	}
	d.Set(5, 0)
	if d.Support() != 0 {
		t.Error("Set(0) should delete")
	}
}

func TestFromStringCounts(t *testing.T) {
	d, err := FromStringCounts(map[string]float64{"010": 1, "111": 3, "001": 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 3 || d.Count(0b010) != 1 || d.Count(0b111) != 3 || d.Support() != 2 || d.Total() != 4 {
		t.Errorf("bad dist: %v", d.StringCounts())
	}
	for _, c := range []struct {
		name   string
		counts map[string]float64
		want   string // substring of the error
	}{
		{"mixed widths", map[string]float64{"01": 1, "111": 1}, "mixed widths"},
		{"empty", nil, "empty"},
		{"bad characters", map[string]float64{"01x": 1}, ""},
		{"negative count", map[string]float64{"01": -5, "11": 10, "10": 3}, `"01"`},
		{"tiny negative", map[string]float64{"0": 0.5, "1": -1e-12}, `"1"`},
		{"NaN", map[string]float64{"0": math.NaN()}, "non-finite"},
		{"Inf", map[string]float64{"1": math.Inf(1)}, "non-finite"},
	} {
		_, err := FromStringCounts(c.counts)
		if err == nil {
			t.Errorf("%s: accepted %v", c.name, c.counts)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %s", c.name, err, c.want)
		}
	}
}

func TestStringCountsRoundTrip(t *testing.T) {
	d := NewDist(5)
	d.Add(0b00101, 7)
	d.Add(0b11000, 2)
	back, err := FromStringCounts(d.StringCounts())
	if err != nil {
		t.Fatal(err)
	}
	if TVD(d, back) != 0 {
		t.Errorf("round trip changed distribution")
	}
}

func TestOutcomesSortedAndEachDeterministic(t *testing.T) {
	d := NewDist(8)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		d.Add(BitString(r.Intn(256)), 1)
	}
	out := d.Outcomes()
	for i := 1; i < len(out); i++ {
		if out[i-1] >= out[i] {
			t.Fatalf("Outcomes not strictly sorted at %d", i)
		}
	}
	var a, b []BitString
	d.Each(func(v BitString, _ float64) { a = append(a, v) })
	d.Each(func(v BitString, _ float64) { b = append(b, v) })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Each order not deterministic")
		}
	}
}

func TestTop(t *testing.T) {
	d := NewDist(4)
	if _, ok := d.Top(); ok {
		t.Error("Top of empty dist should report !ok")
	}
	d.Add(3, 5)
	d.Add(9, 10)
	d.Add(1, 2)
	if v, ok := d.Top(); !ok || v != 9 {
		t.Errorf("Top = %v,%v", v, ok)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := NewDist(4)
	d.Add(1, 5)
	c := d.Clone()
	c.Add(1, 5)
	if d.Count(1) != 5 || c.Count(1) != 10 {
		t.Error("Clone shares state")
	}
}

func TestNormalized(t *testing.T) {
	d := NewDist(4)
	d.Add(1, 2)
	d.Add(2, 6)
	n := d.Normalized(1)
	if !approx(n.Total(), 1, 1e-12) || !approx(n.Count(2), 0.75, 1e-12) {
		t.Errorf("Normalized: total=%v c2=%v", n.Total(), n.Count(2))
	}
	if e := NewDist(4).Normalized(1); e.Total() != 0 {
		t.Error("normalizing empty dist should stay empty")
	}
}

func TestHammingSpectrum(t *testing.T) {
	d := NewDist(3)
	d.Add(0b000, 4) // distance 0
	d.Add(0b001, 2) // distance 1
	d.Add(0b011, 2) // distance 2
	spec := d.HammingSpectrum(0)
	want := []float64{0.5, 0.25, 0.25, 0}
	for i := range want {
		if !approx(spec[i], want[i], 1e-12) {
			t.Errorf("spectrum[%d] = %v want %v", i, spec[i], want[i])
		}
	}
	var sum float64
	for _, p := range spec {
		sum += p
	}
	if !approx(sum, 1, 1e-12) {
		t.Errorf("spectrum sums to %v", sum)
	}
}

func TestExpectedHamming(t *testing.T) {
	d := NewDist(4)
	d.Add(0b0000, 1)
	d.Add(0b1111, 1)
	if got := d.ExpectedHamming(0); !approx(got, 2, 1e-12) {
		t.Errorf("EHD = %v want 2", got)
	}
	if got := NewDist(4).ExpectedHamming(0); got != 0 {
		t.Errorf("EHD of empty dist = %v", got)
	}
}

func TestEntropy(t *testing.T) {
	// Single outcome: zero entropy; uniform over 4: 2 bits.
	d := NewDist(2)
	d.Add(0, 100)
	if got := d.Entropy(); !approx(got, 0, 1e-12) {
		t.Errorf("deterministic entropy = %v", got)
	}
	for v := BitString(0); v < 4; v++ {
		d.Set(v, 1)
	}
	if got := d.Entropy(); !approx(got, 2, 1e-12) {
		t.Errorf("uniform entropy = %v want 2", got)
	}
}

func TestFidelityIdentical(t *testing.T) {
	d := NewDist(3)
	d.Add(1, 3)
	d.Add(5, 7)
	if got := Fidelity(d, d); !approx(got, 1, 1e-12) {
		t.Errorf("self fidelity = %v", got)
	}
}

func TestFidelityDisjoint(t *testing.T) {
	p := NewDist(3)
	p.Add(1, 1)
	q := NewDist(3)
	q.Add(2, 1)
	if got := Fidelity(p, q); got != 0 {
		t.Errorf("disjoint fidelity = %v", got)
	}
	if got := Hellinger(p, q); !approx(got, 1, 1e-12) {
		t.Errorf("disjoint Hellinger = %v", got)
	}
}

func TestFidelityKnownValue(t *testing.T) {
	// p = (1/2, 1/2), q = (1, 0): F = (sqrt(1/2))^2 = 1/2.
	p := NewDist(1)
	p.Add(0, 1)
	p.Add(1, 1)
	q := NewDist(1)
	q.Add(0, 1)
	if got := Fidelity(p, q); !approx(got, 0.5, 1e-12) {
		t.Errorf("fidelity = %v want 0.5", got)
	}
}

func TestHellingerProperties(t *testing.T) {
	f := func(aRaw, bRaw [4]uint8) bool {
		p, q := NewDist(2), NewDist(2)
		for i := 0; i < 4; i++ {
			p.Add(BitString(i), float64(aRaw[i]))
			q.Add(BitString(i), float64(bRaw[i]))
		}
		if p.Total() == 0 || q.Total() == 0 {
			return true
		}
		h := Hellinger(p, q)
		return h >= -1e-12 && h <= 1+1e-12 && approx(h, Hellinger(q, p), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHellingerVec(t *testing.T) {
	if got := HellingerVec([]float64{1, 0}, []float64{1, 0}); !approx(got, 0, 1e-12) {
		t.Errorf("identical vec Hellinger = %v", got)
	}
	if got := HellingerVec([]float64{1, 0}, []float64{0, 1}); !approx(got, 1, 1e-12) {
		t.Errorf("disjoint vec Hellinger = %v", got)
	}
	if got := HellingerVec([]float64{0, 0}, []float64{1, 0}); got != 1 {
		t.Errorf("zero-mass vec Hellinger = %v", got)
	}
	// Scale invariance.
	a := []float64{2, 3, 5}
	b := []float64{40, 60, 100}
	if got := HellingerVec(a, b); !approx(got, 0, 1e-9) {
		t.Errorf("scaled vec Hellinger = %v", got)
	}
}

func TestTVD(t *testing.T) {
	p := NewDist(2)
	p.Add(0, 1)
	q := NewDist(2)
	q.Add(1, 1)
	if got := TVD(p, q); !approx(got, 1, 1e-12) {
		t.Errorf("disjoint TVD = %v", got)
	}
	if got := TVD(p, p); got != 0 {
		t.Errorf("self TVD = %v", got)
	}
	// Asymmetric supports: q has mass p lacks.
	q.Add(0, 1)
	if got := TVD(p, q); !approx(got, 0.5, 1e-12) {
		t.Errorf("TVD = %v want 0.5", got)
	}
}

func TestProbSumsToOne(t *testing.T) {
	f := func(raw []uint8) bool {
		d := NewDist(8)
		for i, c := range raw {
			d.Add(BitString(i%256), float64(c))
		}
		if d.Total() == 0 {
			return true
		}
		var sum float64
		d.Each(func(v BitString, _ float64) { sum += d.Prob(v) })
		return approx(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
