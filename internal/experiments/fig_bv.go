package experiments

import (
	"context"
	"sort"

	"qbeep/internal/algorithms"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/metrics"
	"qbeep/internal/par"
)

// BVCase is one BV circuit induction with all mitigation outcomes
// (one x-position of Fig. 7(a)/(b)).
type BVCase struct {
	Qubits  int
	Backend string
	Secret  string

	PSTRaw    float64
	PSTQBeep  float64
	PSTHammer float64

	FidRaw    float64
	FidQBeep  float64
	FidHammer float64
}

// Figure7Result aggregates the BV evaluation.
type Figure7Result struct {
	Cases []BVCase
	// Relative PST improvement over raw (paper: Q-BEEP mean 1.77×, max
	// 11.2×, 14 % regressions).
	PSTQBeep  metrics.Summary
	PSTHammer metrics.Summary
	// Relative fidelity change (paper: mean 1.25×, max 2.346×).
	FidQBeep  metrics.Summary
	FidHammer metrics.Summary
	// Tracked per-iteration fidelity for a subset (Fig. 7(c)).
	Traces [][]float64
}

// Figure7 reproduces Fig. 7: BV circuits of widths 5–15 across 8 backends,
// comparing raw, HAMMER and Q-BEEP by PST and fidelity, plus tracked
// fidelity per state-graph iteration. Shape targets: Q-BEEP mean PST
// improvement above HAMMER's and above 1; some regressions expected
// (paper: 14 %).
func Figure7(ctx context.Context, cfg Config) (*Figure7Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ctx, done := figureSpan(ctx, "7")
	defer done()
	rng := cfg.rng(7)
	backends, err := device.CatalogSubset(8, 16)
	if err != nil {
		return nil, err
	}
	perWidth := cfg.scaled(15, 1) // 15 secrets per width ≈ 165 circuits
	widths := []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

	res := &Figure7Result{}
	// Phase 1: deterministic corpus with per-case RNGs.
	type task struct {
		w     *algorithms.Workload
		b     *device.Backend
		rng   *mathx.RNG
		n     int
		track bool
	}
	var tasks []task
	caseIdx := 0
	for _, n := range widths {
		for s := 0; s < perWidth; s++ {
			secret := algorithms.RandomSecret(n, rng)
			w, err := algorithms.BernsteinVazirani(n, secret)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, task{
				w:     w,
				b:     backends[caseIdx%len(backends)],
				rng:   rng.Split(uint64(caseIdx)),
				n:     n,
				track: caseIdx%37 == 0, // small tracked subset for panel (c)
			})
			caseIdx++
		}
	}
	// Phase 2: run in parallel into index-addressed slots.
	cases := make([]BVCase, len(tasks))
	traces := make([][]float64, len(tasks))
	_, err = par.ForEach(ctx, len(tasks), 0, func(ctx context.Context, i int) error {
		tk := tasks[i]
		out, err := runWorkload(ctx, tk.w, tk.b, cfg.Shots, cfg.model(), cfg.mitigateOptions(), tk.rng, tk.track)
		if err != nil {
			return err
		}
		pr, pq, ph, err := out.pst3()
		if err != nil {
			return err
		}
		fr, fq, fh := out.fidelity3()
		cases[i] = BVCase{
			Qubits:  tk.n,
			Backend: tk.b.Name,
			Secret:  tk.w.Circuit.Name,

			PSTRaw: pr, PSTQBeep: pq, PSTHammer: ph,
			FidRaw: fr, FidQBeep: fq, FidHammer: fh,
		}
		if tk.track && out.Trace != nil {
			traces[i] = out.Trace
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Cases = cases
	for _, tr := range traces {
		if tr != nil {
			res.Traces = append(res.Traces, tr)
		}
	}

	var pstQB, pstHM, fidQB, fidHM []float64
	for _, c := range res.Cases {
		pstQB = append(pstQB, metrics.SafeRatio(c.PSTRaw, c.PSTQBeep, 1))
		pstHM = append(pstHM, metrics.SafeRatio(c.PSTRaw, c.PSTHammer, 1))
		fidQB = append(fidQB, metrics.SafeRatio(c.FidRaw, c.FidQBeep, 1))
		fidHM = append(fidHM, metrics.SafeRatio(c.FidRaw, c.FidHammer, 1))
	}
	res.PSTQBeep = metrics.Summarize(pstQB)
	res.PSTHammer = metrics.Summarize(pstHM)
	res.FidQBeep = metrics.Summarize(fidQB)
	res.FidHammer = metrics.Summarize(fidHM)

	cfg.printf("\nFigure 7: Bernstein-Vazirani, %d circuits, widths 5-15, %d backends\n",
		len(res.Cases), len(backends))
	cfg.printf("  (a) relative PST improvement:\n")
	cfg.printf("      qbeep : %s  (paper: mean 1.77, max 11.2)\n", res.PSTQBeep)
	cfg.printf("      hammer: %s\n", res.PSTHammer)
	cfg.printf("  (b) relative fidelity change:\n")
	cfg.printf("      qbeep : %s  (paper: mean 1.25, max 2.346)\n", res.FidQBeep)
	cfg.printf("      hammer: %s\n", res.FidHammer)
	if len(res.Traces) > 0 {
		cfg.printf("  (c) tracked fidelity per iteration (%d traces):\n", len(res.Traces))
		tr := res.Traces[0]
		for i, f := range tr {
			cfg.printf("      iter %2d: %.4f\n", i, f)
		}
	}
	// Sorted improvement series, the scatter of panel (a).
	sorted := append([]float64(nil), pstQB...)
	sort.Float64s(sorted)
	cfg.printf("  (a) PST improvement percentiles: p10=%.2f p50=%.2f p90=%.2f p99=%.2f\n",
		quantileSorted(sorted, 0.10), quantileSorted(sorted, 0.50),
		quantileSorted(sorted, 0.90), quantileSorted(sorted, 0.99))
	return res, nil
}

// quantileSorted reads a quantile from an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
