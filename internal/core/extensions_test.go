package core

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
)

// poissonCounts synthesizes a clustered noisy distribution around truth.
func poissonCounts(n int, truth bitstring.BitString, lambda float64, shots int, seed uint64) *bitstring.Dist {
	rng := mathx.NewRNG(seed)
	pois := mathx.Poisson{Lambda: lambda}
	d := bitstring.NewDist(n)
	for i := 0; i < shots; i++ {
		v := truth
		k := pois.Sample(rng.Float64)
		for j := 0; j < k; j++ {
			v = v.FlipBit(rng.Intn(n))
		}
		d.Add(v, 1)
	}
	return d
}

func TestMitigateEnsembleValidation(t *testing.T) {
	if _, err := MitigateEnsembleCtx(context.Background(), nil, NewOptions()); err == nil {
		t.Error("empty ensemble should error")
	}
	good := poissonCounts(4, 0b1010, 0.8, 500, 1)
	if _, err := MitigateEnsembleCtx(context.Background(), []EnsembleMember{
		{Counts: good, Lambda: 0.8},
		{Counts: bitstring.NewDist(4), Lambda: 0.8},
	}, NewOptions()); err == nil {
		t.Error("empty member should error")
	}
	other := poissonCounts(5, 0b01010, 0.8, 500, 2)
	if _, err := MitigateEnsembleCtx(context.Background(), []EnsembleMember{
		{Counts: good, Lambda: 0.8},
		{Counts: other, Lambda: 0.8},
	}, NewOptions()); err == nil {
		t.Error("width mismatch should error")
	}
	if _, err := MitigateEnsembleCtx(context.Background(), []EnsembleMember{
		{Counts: good, Lambda: -1},
	}, NewOptions()); err == nil {
		t.Error("negative lambda should error")
	}
}

func TestMitigateEnsembleWeighsCleanMembers(t *testing.T) {
	const n = 6
	truth := bitstring.BitString(0b101101)
	ideal := bitstring.NewDist(n)
	ideal.Add(truth, 1)
	clean := poissonCounts(n, truth, 0.4, 2000, 3)
	dirty := poissonCounts(n, truth, 3.5, 2000, 4)

	merged, err := MitigateEnsembleCtx(context.Background(), []EnsembleMember{
		{Counts: clean, Lambda: 0.4},
		{Counts: dirty, Lambda: 3.5},
	}, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The ensemble must beat the dirty member alone and sit at or above
	// the naive unweighted average of the two mitigated members.
	dirtyOnly, err := MitigateCtx(context.Background(), dirty, 3.5, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bitstring.Fidelity(ideal, merged) <= bitstring.Fidelity(ideal, dirtyOnly) {
		t.Errorf("ensemble (%v) should beat the dirty member alone (%v)",
			bitstring.Fidelity(ideal, merged), bitstring.Fidelity(ideal, dirtyOnly))
	}
	if math.Abs(merged.Total()-2000) > 1e-6 {
		t.Errorf("ensemble total %v should equal the mean member total", merged.Total())
	}
}

func TestMitigateEnsembleSingleMemberMatchesMitigate(t *testing.T) {
	raw := poissonCounts(5, 0b10110, 1.0, 1500, 5)
	solo, err := MitigateCtx(context.Background(), raw, 1.0, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	ens, err := MitigateEnsembleCtx(context.Background(), []EnsembleMember{{Counts: raw, Lambda: 1.0}}, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bitstring.TVD(solo, ens) > 1e-9 {
		t.Errorf("single-member ensemble diverged: TVD %v", bitstring.TVD(solo, ens))
	}
}

func TestFitProbeCalibrator(t *testing.T) {
	// Realized EHD is consistently 1.5× the estimate: α̂ should be 1.5.
	probes := []ProbeResult{
		{EstimatedLambda: 0.5, RealizedEHD: 0.75},
		{EstimatedLambda: 1.0, RealizedEHD: 1.50},
		{EstimatedLambda: 2.0, RealizedEHD: 3.00},
	}
	cal, err := FitProbeCalibrator(probes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cal.Alpha-1.5) > 1e-9 {
		t.Errorf("alpha = %v want 1.5", cal.Alpha)
	}
	if cal.Probes != 3 {
		t.Errorf("probes = %d", cal.Probes)
	}
	if got := cal.Correct(LambdaBreakdown{Gates: 2}); math.Abs(got-3) > 1e-9 {
		t.Errorf("Correct = %v", got)
	}
	before, after := cal.Quality(probes)
	if after >= before {
		t.Errorf("calibration should reduce probe RMSE: %v -> %v", before, after)
	}
}

func TestFitProbeCalibratorErrors(t *testing.T) {
	if _, err := FitProbeCalibrator(nil); err == nil {
		t.Error("no probes should error")
	}
	if _, err := FitProbeCalibrator([]ProbeResult{{EstimatedLambda: 1, RealizedEHD: 1}}); err == nil {
		t.Error("single probe should error")
	}
	if _, err := FitProbeCalibrator([]ProbeResult{
		{EstimatedLambda: 0, RealizedEHD: 1},
		{EstimatedLambda: -1, RealizedEHD: 1},
	}); err == nil {
		t.Error("no usable probes should error")
	}
	if _, err := FitProbeCalibrator([]ProbeResult{
		{EstimatedLambda: 1, RealizedEHD: 0},
		{EstimatedLambda: 2, RealizedEHD: 0},
	}); err == nil {
		t.Error("zero-EHD probes give degenerate alpha and should error")
	}
}

func TestProbeCalibrationImprovesLambdaOnExecutor(t *testing.T) {
	// End-to-end: RB probes on a backend fit α; the corrected λ must be
	// closer to the realized EHD of a held-out circuit than the raw Eq. 2
	// estimate is.
	b, err := device.ByName("medellin")
	if err != nil {
		t.Fatal(err)
	}
	exec, err := noise.NewExecutor(b, noise.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(31)
	var probes []ProbeResult
	for i := 0; i < 6; i++ {
		w, err := algorithms.RandomizedBenchmarking(6, 1+i, rng)
		if err != nil {
			t.Fatal(err)
		}
		run, err := exec.ExecuteCtx(context.Background(), w.Circuit, 2048, rng)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateLambda(run.Transpiled, b)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := w.MarginalCounts(run.Counts)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := ProbeResultFrom(est, counts, w.Expected)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, pr)
	}
	cal, err := FitProbeCalibrator(probes)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out workloads from the same family and depth regime (see the
	// ProbeCalibrator doc: the correction transfers within a family).
	// Averaged over several holdouts so a single lucky raw estimate
	// cannot dominate.
	var rawErr, corErr float64
	for i := 0; i < 5; i++ {
		w, err := algorithms.RandomizedBenchmarking(6, 2+i, rng)
		if err != nil {
			t.Fatal(err)
		}
		run, err := exec.ExecuteCtx(context.Background(), w.Circuit, 4096, rng)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateLambda(run.Transpiled, b)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := w.MarginalCounts(run.Counts)
		if err != nil {
			t.Fatal(err)
		}
		realized := counts.ExpectedHamming(w.Expected)
		rawErr += math.Abs(est.Lambda() - realized)
		corErr += math.Abs(cal.Correct(est) - realized)
	}
	if corErr >= rawErr {
		t.Errorf("probe calibration did not help: raw Σ|Δλ|=%v corrected=%v (alpha %v)",
			rawErr, corErr, cal.Alpha)
	}
}

func TestProbeResultFromEmpty(t *testing.T) {
	if _, err := ProbeResultFrom(LambdaBreakdown{}, bitstring.NewDist(3), 0); err == nil {
		t.Error("empty counts should error")
	}
}
