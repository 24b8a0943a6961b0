package experiments

import (
	"context"
	"testing"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
)

// TestStaleCalibrationCausesRegressions reproduces the paper's §4.2
// failure analysis: Q-BEEP's regressions come from λ mis-estimation when
// the published calibration has drifted from the device's true state. We
// execute on a heavily drifted backend while estimating λ from the stale
// snapshot, and check that mitigation quality degrades relative to using
// the fresh (true) calibration.
func TestStaleCalibrationCausesRegressions(t *testing.T) {
	fresh, err := device.ByName("medellin")
	if err != nil {
		t.Fatal(err)
	}
	// The device as it actually behaves today: drifted hard.
	today, err := device.Drifted(fresh, 1.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := noise.NewExecutor(today, noise.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(17)

	var freshFid, staleFid []float64
	for trial := 0; trial < 6; trial++ {
		n := 8 + trial%3
		w, err := algorithms.BernsteinVazirani(n, algorithms.RandomSecret(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		run, err := exec.ExecuteCtx(context.Background(), w.Circuit, 2048, rng)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := w.MarginalCounts(run.Counts)
		if err != nil {
			t.Fatal(err)
		}
		ideal, err := w.MarginalCounts(run.Ideal)
		if err != nil {
			t.Fatal(err)
		}
		// λ from the device's true (today) calibration vs the stale one.
		lbToday, err := core.EstimateLambda(run.Transpiled, today)
		if err != nil {
			t.Fatal(err)
		}
		lbStale, err := core.EstimateLambda(run.Transpiled, fresh)
		if err != nil {
			t.Fatal(err)
		}
		outToday, err := core.MitigateCtx(context.Background(), raw, lbToday.Lambda(), core.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		outStale, err := core.MitigateCtx(context.Background(), raw, lbStale.Lambda(), core.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		freshFid = append(freshFid, bitstring.Fidelity(ideal, outToday))
		staleFid = append(staleFid, bitstring.Fidelity(ideal, outStale))
	}
	if mathx.Mean(staleFid) >= mathx.Mean(freshFid) {
		t.Errorf("stale calibration should hurt on average: stale %v vs fresh %v",
			mathx.Mean(staleFid), mathx.Mean(freshFid))
	}
}
