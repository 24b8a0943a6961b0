package experiments

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"qbeep/internal/core"
	"qbeep/internal/metrics"
	"qbeep/internal/obs"
	"qbeep/internal/runledger"
)

// Quality capture for experiment workloads: every runWorkload feeds
// (1) the quality.pst_improvement histogram on /metrics, (2) the
// in-process aggregator that backs the RunReport's per-figure quality
// summary, and (3) — when -run-ledger is active — one runledger.Record
// with the full Hamming-spectrum quality block. Ground truth is always
// available here (the simulator produces the ideal distribution), so
// these are the records make quality-gate pins.

// metQualityPST is the mitigated/raw PST improvement ratio of every
// deterministic workload (paper Eq. 6 territory).
var metQualityPST = obs.Default.Histogram("quality.pst_improvement")

// activeFigure tags quality samples and ledger records with the figure
// whose runner is executing. Figures run serially (the CLI walks its
// table; runners call figureSpan), but workloads inside one figure fan
// out through par — hence an atomic, written by figureSpan only.
var activeFigure atomic.Value // string

func currentFigure() string {
	if v, ok := activeFigure.Load().(string); ok {
		return v
	}
	return ""
}

// qualitySample is one workload's contribution to the report summary.
type qualitySample struct {
	figure         string
	hellingerShift float64
	fidelityRaw    float64
	fidelityQB     float64
	pstImprovement float64 // 0 when the workload is not deterministic
}

// qualityAgg is the process-global aggregator, reset by NewRunReport
// (one report per process run, matching the obs metrics snapshot).
var (
	qualityMu      sync.Mutex
	qualitySamples []qualitySample
)

func resetQualitySamples() {
	qualityMu.Lock()
	qualitySamples = nil
	qualityMu.Unlock()
}

// FigureQuality is one figure's quality aggregate in the RunReport.
type FigureQuality struct {
	Figure string `json:"figure"`
	N      int    `json:"n"`
	// HellingerShift summarizes how far induction moved each workload's
	// distribution; Fidelity* summarize Bhattacharyya fidelity against
	// the simulator's ideal distribution.
	HellingerShift    runledger.Stats `json:"hellinger_shift"`
	FidelityRaw       runledger.Stats `json:"fidelity_raw"`
	FidelityMitigated runledger.Stats `json:"fidelity_mitigated"`
	// PSTImprovement covers only the figure's deterministic workloads
	// (N may be smaller than the group's).
	PSTImprovement runledger.Stats `json:"pst_improvement"`
}

// qualitySummary folds the collected samples into per-figure
// aggregates, sorted by figure ID.
func qualitySummary() []FigureQuality {
	qualityMu.Lock()
	samples := append([]qualitySample(nil), qualitySamples...)
	qualityMu.Unlock()
	byFigure := map[string][]qualitySample{}
	for _, s := range samples {
		byFigure[s.figure] = append(byFigure[s.figure], s)
	}
	var out []FigureQuality
	for _, fig := range sortedKeys(byFigure) {
		ss := byFigure[fig]
		fq := FigureQuality{Figure: fig, N: len(ss)}
		var shift, fraw, fqb, pst []float64
		for _, s := range ss {
			shift = append(shift, s.hellingerShift)
			fraw = append(fraw, s.fidelityRaw)
			fqb = append(fqb, s.fidelityQB)
			if s.pstImprovement > 0 {
				pst = append(pst, s.pstImprovement)
			}
		}
		fq.HellingerShift = runledger.Summarize(shift)
		fq.FidelityRaw = runledger.Summarize(fraw)
		fq.FidelityMitigated = runledger.Summarize(fqb)
		fq.PSTImprovement = runledger.Summarize(pst)
		out = append(out, fq)
	}
	return out
}

// hellingerFromFidelity converts Bhattacharyya fidelity (F = BC²) to
// the Hellinger distance sqrt(1−BC) — the same transform the core
// tracked loop uses, so report and ledger numbers agree with spans.
func hellingerFromFidelity(f float64) float64 {
	bc := math.Sqrt(f)
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// recordQuality is runWorkload's quality epilogue: o is the completed
// outcome, q the core loop's QualityStats, mitigateWallS the measured
// mitigation wall time. It prefers the workload's exact expected
// bitstring over core's mode-derived spectrum center, observes the
// PST-improvement histogram, feeds the report aggregator, and appends
// a ledger record, joined to the trace active in ctx, when one is
// installed.
func recordQuality(ctx context.Context, o *Outcome, q core.QualityStats, mitigateWallS float64) {
	fRaw, fQB, _ := o.fidelity3()
	q.FidelityRaw, q.FidelityMitigated = fRaw, fQB
	q.HellingerRaw = hellingerFromFidelity(fRaw)
	q.HellingerMitigated = hellingerFromFidelity(fQB)

	var pstRaw, pstQB, pstImprovement, ist float64
	if o.Workload.Deterministic {
		e := o.Workload.Expected
		pstRaw, pstQB = o.Raw.Prob(e), o.QBeep.Prob(e)
		pstImprovement = metrics.SafeRatio(pstRaw, pstQB, 0)
		if pstImprovement > 0 {
			metQualityPST.Observe(pstImprovement)
		}
		if v, ok := metrics.IST(o.QBeep, e); ok {
			ist = v
		}
		// Exact ground truth beats core's ideal-mode center.
		q.SpectrumRef = "expected"
		q.SpectrumBefore = o.Raw.HammingSpectrum(e)
		q.SpectrumAfter = o.QBeep.HammingSpectrum(e)
	}

	fig := currentFigure()
	qualityMu.Lock()
	qualitySamples = append(qualitySamples, qualitySample{
		figure:         fig,
		hellingerShift: q.HellingerShift,
		fidelityRaw:    fRaw,
		fidelityQB:     fQB,
		pstImprovement: pstImprovement,
	})
	qualityMu.Unlock()

	if !obs.RunLedgerEnabled() {
		return
	}
	rec := runledger.Record{
		Tool:        "qbeep-experiments",
		TraceID:     obs.TraceIDFrom(ctx),
		Figure:      fig,
		Backend:     o.Backend.Name,
		Circuit:     o.Workload.Circuit.Name,
		CircuitHash: runledger.HashBytes([]byte(o.Workload.Circuit.Name)),
		Lambda:      o.Lambda.Lambda(),
		Shots:       o.Raw.Total(),
		Stages:      []runledger.Stage{{Name: "mitigate", WallS: mitigateWallS}},
		Quality: runledger.Quality{
			HellingerShift:     q.HellingerShift,
			HellingerRaw:       q.HellingerRaw,
			HellingerMitigated: q.HellingerMitigated,
			FidelityRaw:        q.FidelityRaw,
			FidelityMitigated:  q.FidelityMitigated,
			PSTRaw:             pstRaw,
			PSTMitigated:       pstQB,
			PSTImprovement:     pstImprovement,
			IST:                ist,
			PosteriorEntropy:   q.PosteriorEntropy,
			Iterations:         q.Iterations,
			Converged:          q.Converged,
			SpectrumRef:        q.SpectrumRef,
			SpectrumBefore:     q.SpectrumBefore,
			SpectrumAfter:      q.SpectrumAfter,
		},
	}
	if err := obs.RecordRun(&rec); err != nil {
		obs.Logger().Warn("run-ledger append failed", "err", err)
	}
}
