package experiments

import (
	"context"
	"encoding/json"
	"io"
	"time"

	"qbeep/internal/obs"
)

// figureSpan opens the "experiments.figure" span (attribute id) under
// ctx, logs the start of a figure runner at info level, and returns the
// span's context plus the completion hook that ends it:
//
//	ctx, done := figureSpan(ctx, "7")
//	defer done()
//
// Long runs stop being silent (the CLI's -log-level defaults to info),
// while library and test use stays quiet under the default discarding
// logger.
func figureSpan(ctx context.Context, id string) (context.Context, func()) {
	t0 := time.Now()
	// Figures run serially; the active ID tags the quality samples and
	// ledger records their workloads emit (see quality.go).
	activeFigure.Store(id)
	obs.Logger().Info("figure start", "figure", id)
	ctx, sp := obs.Start(ctx, "experiments.figure") //qbeep:allow-spanleak ended by the returned completion hook
	sp.SetAttr("id", id)
	return ctx, func() {
		sp.End()
		activeFigure.Store("")
		obs.Logger().Info("figure done", "figure", id, "elapsed", time.Since(t0))
	}
}

// FigureReport is one figure's entry in a RunReport.
type FigureReport struct {
	ID        string  `json:"id"`
	Status    string  `json:"status"` // "ok" or "error"
	Error     string  `json:"error,omitempty"`
	ElapsedNS int64   `json:"elapsed_ns"`
	ElapsedS  float64 `json:"elapsed_s"`
}

// RunReport is the machine-readable summary cmd/qbeep-experiments emits
// with -report: which figures ran, how long each took, the configuration
// that produced them, and a snapshot of the obs metrics registry so a
// run's cost profile travels with its results.
type RunReport struct {
	Started        time.Time      `json:"started"`
	Seed           uint64         `json:"seed"`
	Shots          int            `json:"shots"`
	Scale          float64        `json:"scale"`
	Figures        []FigureReport `json:"figures"`
	TotalElapsedNS int64          `json:"total_elapsed_ns"`
	TotalElapsedS  float64        `json:"total_elapsed_s"`
	// Quality is the per-figure mitigation-quality summary (Hellinger
	// shift, fidelity before/after, PST improvement) aggregated from
	// the run's workload records — the -report view of the run ledger.
	Quality []FigureQuality `json:"quality,omitempty"`
	Metrics map[string]any  `json:"metrics,omitempty"`
}

// NewRunReport starts a report for the given configuration and resets
// the quality aggregator, so the eventual Finalize summarizes exactly
// this run's workloads.
func NewRunReport(cfg Config, started time.Time) *RunReport {
	resetQualitySamples()
	return &RunReport{
		Started: started,
		Seed:    cfg.Seed,
		Shots:   cfg.Shots,
		Scale:   cfg.Scale,
	}
}

// AddFigure records one figure's outcome.
func (r *RunReport) AddFigure(id string, elapsed time.Duration, err error) {
	fr := FigureReport{
		ID:        id,
		Status:    "ok",
		ElapsedNS: elapsed.Nanoseconds(),
		ElapsedS:  elapsed.Seconds(),
	}
	if err != nil {
		fr.Status = "error"
		fr.Error = err.Error()
	}
	r.Figures = append(r.Figures, fr)
	r.TotalElapsedNS += elapsed.Nanoseconds()
	r.TotalElapsedS += elapsed.Seconds()
}

// Finalize attaches the per-figure quality summary and the current obs
// metrics snapshot.
func (r *RunReport) Finalize() {
	r.Quality = qualitySummary()
	r.Metrics = obs.Default.Snapshot()
}

// Write emits the report as indented JSON.
func (r *RunReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
