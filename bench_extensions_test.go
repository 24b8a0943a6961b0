package qbeep

// Extension benches: ZNE composition and layout search — the
// optional/extension features beyond the paper's evaluation.

import (
	"context"
	"testing"

	"qbeep/internal/algorithms"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/transpile"
	"qbeep/internal/zne"
)

// BenchmarkZNEComposition measures zero-noise extrapolation of a BV PST
// against the single-scale raw measurement.
func BenchmarkZNEComposition(b *testing.B) {
	bk, err := device.ByName("galway")
	if err != nil {
		b.Fatal(err)
	}
	exec, err := noise.NewExecutor(bk, noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	w, err := algorithms.BernsteinVazirani(6, 0b101101)
	if err != nil {
		b.Fatal(err)
	}
	var raw, extrapolated float64
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(9)
		var pts []zne.Point
		for _, scale := range []int{1, 3, 5} {
			folded, err := zne.Fold(w.Circuit, scale)
			if err != nil {
				b.Fatal(err)
			}
			run, err := exec.ExecuteCtx(context.Background(), folded, 4096, rng)
			if err != nil {
				b.Fatal(err)
			}
			counts, err := w.MarginalCounts(run.Counts)
			if err != nil {
				b.Fatal(err)
			}
			p := counts.Prob(w.Expected)
			pts = append(pts, zne.Point{Scale: float64(scale), Value: p})
			if scale == 1 {
				raw = p
			}
		}
		extrapolated, err = zne.ExtrapolateExp(pts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(raw, "pst-raw")
	b.ReportMetric(extrapolated, "pst-zne")
}

// BenchmarkLayoutSearch compares greedy placement against the λ-aware
// layout search (12 random trials) by the realized PST of the induction.
func BenchmarkLayoutSearch(b *testing.B) {
	bk, err := device.ByName("nairobi2")
	if err != nil {
		b.Fatal(err)
	}
	exec, err := noise.NewExecutor(bk, noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	w, err := algorithms.BernsteinVazirani(8, 0b10110101)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		trials int
	}{
		{"greedy", 0},
		{"search12", 12},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var pst float64
			for i := 0; i < b.N; i++ {
				res, err := transpile.SearchLayout(context.Background(), w.Circuit, bk, tc.trials, 7)
				if err != nil {
					b.Fatal(err)
				}
				run, err := exec.ExecuteTranspiledCtx(context.Background(), w.Circuit, res, 4096, mathx.NewRNG(5))
				if err != nil {
					b.Fatal(err)
				}
				counts, err := w.MarginalCounts(run.Counts)
				if err != nil {
					b.Fatal(err)
				}
				pst = counts.Prob(w.Expected)
			}
			b.ReportMetric(pst, "pst-raw")
		})
	}
}
