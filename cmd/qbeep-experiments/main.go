// Command qbeep-experiments regenerates the tables and series behind
// every figure of the paper's evaluation (see DESIGN.md §4 for the
// figure-to-module index).
//
// Usage:
//
//	qbeep-experiments -fig all                 # everything, paper-sized
//	qbeep-experiments -fig 2,4,6 -scale 0.1    # selected figures, 10 % corpora
//	qbeep-experiments -fig 7 -shots 8192 -seed 42
//	qbeep-experiments -fig all -csv out/       # also dump plot-ready CSVs
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"qbeep/internal/buildinfo"
	"qbeep/internal/experiments"
	"qbeep/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qbeep-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figs        = flag.String("fig", "all", "comma-separated figure ids (1,2,4,6,7,8,9,10,11), 'ablations', or 'all'")
		scale       = flag.Float64("scale", 1, "corpus scale in (0,1]")
		shots       = flag.Int("shots", 4096, "shots per circuit")
		seed        = flag.Uint64("seed", 20230617, "root RNG seed")
		iterations  = flag.Int("iterations", 0, "flow iterations per mitigation (0 = paper default 20)")
		convergeTol = flag.Float64("converge-tol", 0, "stop each mitigation early when the per-iteration Hellinger delta falls below this (0 = fixed schedule)")
		topK        = flag.Int("top-k", 0, "approximate mode: keep only the k heaviest edges per vertex (0 = exact)")
		batch       = flag.Int("batch", 1, "shot blocks fanned across the worker pool per induction (<=1 = serial stream; >1 = a per-block stream, deterministic in (seed, batch), not equal to the serial counts)")
		csvDir      = flag.String("csv", "", "directory for per-figure CSV dumps (created if missing)")
		report      = flag.String("report", "", "write a machine-readable JSON run report to this path ('-' = stderr)")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/pprof/, /debug/vars, /metrics and /healthz on this address (e.g. localhost:6060)")
		traceFlags  = obs.AddTraceFlags(nil)
		ledgerFlags = obs.AddLedgerFlags(nil)
		logFlags    = obs.AddLogFlags(nil)
		version     = buildinfo.AddVersionFlag(nil)
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Summary("qbeep-experiments"))
		return nil
	}
	if err := logFlags.Apply(os.Stderr); err != nil {
		return err
	}
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return fmt.Errorf("starting debug server: %w", err)
		}
		// Shutdown (not Close) lets an in-flight /metrics or pprof scrape
		// finish before the process exits.
		defer func() {
			if err := ds.Shutdown(5 * time.Second); err != nil {
				obs.Logger().Warn("debug server shutdown", "err", err)
			}
		}()
	}
	stopTrace, err := traceFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopTrace(); err != nil {
			obs.Logger().Warn("flushing trace output", "err", err)
		}
	}()
	stopLedger, err := ledgerFlags.Start()
	if err != nil {
		return err
	}
	// Every workload appends its quality record (see
	// internal/experiments/quality.go); the close flushes the NDJSON tail.
	defer func() {
		if err := stopLedger(); err != nil {
			obs.Logger().Warn("closing run ledger", "err", err)
		}
	}()

	// One root span per run: every figure's experiments.figure span, and
	// everything its workloads open, parents under it.
	ctx, sp := obs.Start(context.Background(), "qbeep.experiments")
	defer sp.End()

	cfg := experiments.Config{
		Seed:        *seed,
		Shots:       *shots,
		Scale:       *scale,
		Iterations:  *iterations,
		ConvergeTol: *convergeTol,
		TopK:        *topK,
		Batch:       *batch,
		Out:         os.Stdout,
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	dump := func(figure string, w func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		path := filepath.Join(*csvDir, experiments.CSVName(figure))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := w(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		return nil
	}

	selected := map[string]bool{}
	if *figs == "all" {
		for _, f := range []string{"1", "2", "4", "6", "7", "8", "9", "10", "11", "ablations"} {
			selected[f] = true
		}
	} else {
		for _, f := range strings.Split(*figs, ",") {
			selected[strings.TrimSpace(f)] = true
		}
	}

	type runner struct {
		id  string
		run func(experiments.Config) error
	}
	runners := []runner{
		{"1", func(c experiments.Config) error {
			_, err := experiments.Figure1(ctx, c)
			return err
		}},
		{"2", func(c experiments.Config) error {
			res, err := experiments.Figure2(ctx, c)
			if err != nil {
				return err
			}
			return dump("2", func(w io.Writer) error {
				for i := range res {
					if err := res[i].WriteCSV(w); err != nil {
						return err
					}
				}
				return nil
			})
		}},
		{"4", func(c experiments.Config) error {
			res, err := experiments.Figure4(ctx, c)
			if err != nil {
				return err
			}
			return dump("4", res.WriteCSV)
		}},
		{"6", func(c experiments.Config) error {
			res, err := experiments.Figure6(ctx, c)
			if err != nil {
				return err
			}
			return dump("6", res.WriteCSV)
		}},
		{"7", func(c experiments.Config) error {
			res, err := experiments.Figure7(ctx, c)
			if err != nil {
				return err
			}
			return dump("7", res.WriteCSV)
		}},
	}
	// Figures 8, 9 and 11 share one sweep; run it once if any is selected.
	if selected["8"] || selected["9"] || selected["11"] {
		runners = append(runners, runner{"8/9/11", func(c experiments.Config) error {
			res, err := experiments.RunQASMBench(ctx, c)
			if err != nil {
				return err
			}
			return dump("8", res.WriteCSV)
		}})
		delete(selected, "8")
		delete(selected, "9")
		delete(selected, "11")
		selected["8/9/11"] = true
	}
	runners = append(runners, runner{"10", func(c experiments.Config) error {
		res, err := experiments.Figure10(ctx, c)
		if err != nil {
			return err
		}
		return dump("10", res.WriteCSV)
	}})
	runners = append(runners, runner{"ablations", func(c experiments.Config) error {
		_, err := experiments.Ablations(ctx, c)
		return err
	}})

	runReport := experiments.NewRunReport(cfg, time.Now())
	writeReport := func() error {
		if *report == "" {
			return nil
		}
		runReport.Finalize()
		if *report == "-" {
			return runReport.Write(os.Stderr)
		}
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		if err := runReport.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote run report %s\n", *report)
		return nil
	}

	ran := 0
	for _, r := range runners {
		if !selected[r.id] {
			continue
		}
		fmt.Printf("\n==== Figure %s ====\n", r.id)
		t0 := time.Now()
		err := r.run(cfg)
		runReport.AddFigure(r.id, time.Since(t0), err)
		if err != nil {
			// The partial report still lands on disk so a crashed sweep
			// keeps its timing evidence.
			if werr := writeReport(); werr != nil {
				obs.Logger().Warn("writing run report failed", "err", werr)
			}
			return fmt.Errorf("figure %s: %w", r.id, err)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no figures selected (got -fig %q)", *figs)
	}
	return writeReport()
}
