package qvolume

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/statevector"
)

func TestModelCircuitShape(t *testing.T) {
	rng := mathx.NewRNG(1)
	c, err := ModelCircuit(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 4 {
		t.Errorf("width %d", c.N)
	}
	// 4 layers × 2 blocks × 3 CX = 24 CX.
	if got := c.TwoQubitCount(); got != 24 {
		t.Errorf("CX count %d want 24", got)
	}
	if !c.HasMeasurement() {
		t.Error("no measurements")
	}
	if _, err := ModelCircuit(1, rng); err == nil {
		t.Error("width 1 should error")
	}
	if _, err := ModelCircuit(13, rng); err == nil {
		t.Error("width 13 should error")
	}
}

func TestHeavySetProperties(t *testing.T) {
	rng := mathx.NewRNG(7)
	c, err := ModelCircuit(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := HeavySet(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// By construction roughly half the outcomes are heavy.
	if len(heavy) < 8 || len(heavy) > 24 {
		t.Errorf("heavy set size %d for 32 outcomes", len(heavy))
	}
	// Ideal HOP of a scrambled circuit approaches (1+ln2)/2 ≈ 0.85.
	s, err := statevector.RunConfiguredCtx(context.Background(), c, 0, statevector.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ideal := s.Dist()
	hop, err := HOP(ideal, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if hop < 0.75 || hop > 0.95 {
		t.Errorf("ideal HOP %v outside the Porter-Thomas band", hop)
	}
}

func TestHOPValidation(t *testing.T) {
	if _, err := HOP(nil, nil); err == nil {
		t.Error("nil counts should error")
	}
	if _, err := HOP(bitstring.NewDist(2), nil); err == nil {
		t.Error("empty counts should error")
	}
	d := bitstring.NewDist(2)
	d.Add(0b01, 3)
	d.Add(0b10, 1)
	hop, err := HOP(d, map[bitstring.BitString]bool{0b01: true})
	if err != nil || math.Abs(hop-0.75) > 1e-12 {
		t.Errorf("HOP = %v err %v", hop, err)
	}
}

func TestJudge(t *testing.T) {
	// Tight cluster above 2/3: pass.
	r, err := Judge(4, []float64{0.8, 0.82, 0.79, 0.81})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Errorf("should pass: %+v", r)
	}
	// Mean above 2/3 but huge spread: fail on confidence.
	r, _ = Judge(4, []float64{0.95, 0.4, 0.95, 0.42})
	if r.Pass {
		t.Errorf("wide spread should fail: %+v", r)
	}
	if _, err := Judge(4, []float64{0.7}); err == nil {
		t.Error("single circuit should error")
	}
}

func TestVolume(t *testing.T) {
	rs := []Result{
		{Width: 2, Pass: true},
		{Width: 3, Pass: true},
		{Width: 4, Pass: false},
	}
	if v := Volume(rs); v != 8 {
		t.Errorf("volume %d want 8", v)
	}
	if v := Volume(nil); v != 0 {
		t.Errorf("empty volume %d", v)
	}
}

// TestQBEEPRaisesHOP is the extension experiment: Q-BEEP post-processing
// on QV circuits should raise the heavy-output probability on a noisy
// backend, lifting the measured quantum volume.
func TestQBEEPRaisesHOP(t *testing.T) {
	b, err := device.ByName("galway")
	if err != nil {
		t.Fatal(err)
	}
	exec, err := noise.NewExecutor(b, noise.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(11)
	var rawHOPs, qbHOPs []float64
	for trial := 0; trial < 4; trial++ {
		c, err := ModelCircuit(4, rng)
		if err != nil {
			t.Fatal(err)
		}
		heavy, err := HeavySet(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		run, err := exec.ExecuteCtx(context.Background(), c, 2048, rng)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := core.EstimateLambda(run.Transpiled, b)
		if err != nil {
			t.Fatal(err)
		}
		mitigated, err := core.MitigateCtx(context.Background(), run.Counts, lb.Lambda(), core.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		hr, err := HOP(run.Counts, heavy)
		if err != nil {
			t.Fatal(err)
		}
		hq, err := HOP(mitigated, heavy)
		if err != nil {
			t.Fatal(err)
		}
		rawHOPs = append(rawHOPs, hr)
		qbHOPs = append(qbHOPs, hq)
	}
	if mathx.Mean(qbHOPs) <= mathx.Mean(rawHOPs) {
		t.Errorf("Q-BEEP should raise mean HOP: %v -> %v", mathx.Mean(rawHOPs), mathx.Mean(qbHOPs))
	}
}
