package experiments

import (
	"context"
	"strconv"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/readout"
)

// AblationRow is one configuration of an ablation study with its achieved
// fidelity.
type AblationRow struct {
	Study    string
	Variant  string
	Fidelity float64
	// Extra carries a study-specific second metric (state-graph edges for
	// the ε sweep, λ for the λ-source sweep); zero when unused.
	Extra float64
}

// AblationResult is the full ablation study of DESIGN.md §5 as one table.
type AblationResult struct {
	Rows []AblationRow
	// RawFidelity is the unmitigated reference.
	RawFidelity float64
}

// Ablations runs every ablation study on one reference workload (10-qubit
// BV on medellin) and prints the table. The same sweeps exist as Go
// benchmarks; this runner makes them part of the reproducible experiment
// pipeline.
func Ablations(ctx context.Context, cfg Config) (*AblationResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ctx, done := figureSpan(ctx, "ablations")
	defer done()
	w, err := algorithms.BernsteinVazirani(10, 0b1011010011)
	if err != nil {
		return nil, err
	}
	b, err := device.ByName("medellin")
	if err != nil {
		return nil, err
	}
	exec, err := noise.NewExecutor(b, cfg.model())
	if err != nil {
		return nil, err
	}
	run, err := exec.ExecuteCtx(ctx, w.Circuit, cfg.Shots, cfg.rng(99))
	if err != nil {
		return nil, err
	}
	lb, err := core.EstimateLambda(run.Transpiled, b)
	if err != nil {
		return nil, err
	}
	raw, err := w.MarginalCounts(run.Counts)
	if err != nil {
		return nil, err
	}
	ideal, err := w.MarginalCounts(run.Ideal)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{RawFidelity: bitstring.Fidelity(ideal, raw)}

	score := func(study, variant string, opts core.Options, lambda, extra float64) error {
		out, err := core.MitigateCtx(ctx, raw, lambda, opts)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, AblationRow{
			Study:    study,
			Variant:  variant,
			Fidelity: bitstring.Fidelity(ideal, out),
			Extra:    extra,
		})
		return nil
	}

	// Edge model.
	if err := score("edge-model", "poisson", core.NewOptions(), lb.Lambda(), 0); err != nil {
		return nil, err
	}
	hm := core.NewOptions()
	hm.Weighter = core.InverseDistanceEdges{}
	if err := score("edge-model", "inverse-distance", hm, lb.Lambda(), 0); err != nil {
		return nil, err
	}

	// Iterations.
	for _, iters := range []int{1, 5, 20} {
		o := core.NewOptions()
		o.Iterations = iters
		if err := score("iterations", itoa(iters)+"-damped", o, lb.Lambda(), float64(iters)); err != nil {
			return nil, err
		}
	}
	constLR := core.NewOptions()
	constLR.LearningRate = func(int) float64 { return 1 }
	if err := score("iterations", "20-constant", constLR, lb.Lambda(), 20); err != nil {
		return nil, err
	}

	// Epsilon.
	for _, eps := range []float64{0.01, 0.05, 0.2} {
		o := core.NewOptions()
		o.Epsilon = eps
		g, err := core.BuildStateGraphCtx(ctx, raw, core.PoissonEdges{Lambda: lb.Lambda()}, eps, 0)
		if err != nil {
			return nil, err
		}
		if err := score("epsilon", ftoa(eps), o, lb.Lambda(), float64(g.NumEdges())); err != nil {
			return nil, err
		}
	}

	// Lambda sources.
	spec := raw.HammingSpectrum(w.Expected)
	spec[0] = 0
	values := make([]int, len(spec))
	for i := range values {
		values[i] = i
	}
	oracle, err := mathx.FitPoissonMLE(values, spec)
	if err != nil {
		return nil, err
	}
	for _, tc := range []struct {
		name   string
		lambda float64
	}{
		{"full-eq2", lb.Lambda()},
		{"decoherence-only", lb.T1 + lb.T2},
		{"gates-only", lb.Gates},
		{"oracle-mle", oracle.Lambda},
	} {
		if err := score("lambda-source", tc.name, core.NewOptions(), tc.lambda, tc.lambda); err != nil {
			return nil, err
		}
	}

	// Composition: readout correction before Q-BEEP.
	flips := make([]float64, 10)
	for i, p := range run.Transpiled.Final[:10] {
		flips[i] = b.Calibration.Qubits[p].ReadoutError
	}
	rd, err := readout.NewFromRates(flips)
	if err != nil {
		return nil, err
	}
	corrected, err := rd.Apply(raw)
	if err != nil {
		return nil, err
	}
	out, err := core.MitigateCtx(ctx, corrected, lb.Lambda(), core.NewOptions())
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Study:    "composition",
		Variant:  "readout-then-qbeep",
		Fidelity: bitstring.Fidelity(ideal, out),
	})

	cfg.printf("\nAblations: 10-qubit BV on medellin (raw fidelity %.4f)\n", res.RawFidelity)
	cfg.printf("  %-14s %-20s %9s %10s\n", "study", "variant", "fidelity", "extra")
	for _, r := range res.Rows {
		cfg.printf("  %-14s %-20s %9.4f %10.4g\n", r.Study, r.Variant, r.Fidelity, r.Extra)
	}
	return res, nil
}

func itoa(v int) string { return strconv.Itoa(v) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }
