// Command qbeep-sim runs an OpenQASM 2.0 circuit on a synthetic backend
// under the hardware-style noise model and writes the measured counts as
// JSON — completing the offline workflow with cmd/qbeep:
//
//	qbeep-sim -qasm bv.qasm -backend istanbul -shots 4096 > counts.json
//	qbeep -counts counts.json -qasm bv.qasm -backend istanbul
//
// With -ideal the exact noiseless distribution is emitted instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qbeep"
	"qbeep/internal/bitstring"
	"qbeep/internal/buildinfo"
	"qbeep/internal/obs"
	"qbeep/internal/results"
	"qbeep/internal/runledger"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qbeep-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		qasmPath    = flag.String("qasm", "", "OpenQASM 2.0 circuit (required)")
		backend     = flag.String("backend", "istanbul", "backend name (see qbeep-backends)")
		shots       = flag.Int("shots", 4096, "shots")
		batch       = flag.Int("batch", 1, "shot blocks fanned across the worker pool (<=1 = serial stream; >1 = a per-block stream, deterministic in (seed, batch), not equal to the serial counts)")
		seed        = flag.Uint64("seed", 1, "noise RNG seed")
		ideal       = flag.Bool("ideal", false, "emit the noiseless distribution instead")
		meta        = flag.Bool("meta", false, "wrap counts in the metadata envelope (backend, shots, lambda)")
		outPath     = flag.String("o", "", "output path (default stdout)")
		traceFlags  = obs.AddTraceFlags(nil)
		ledgerFlags = obs.AddLedgerFlags(nil)
		logFlags    = obs.AddLogFlags(nil)
		version     = buildinfo.AddVersionFlag(nil)
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Summary("qbeep-sim"))
		return nil
	}
	if err := logFlags.Apply(os.Stderr); err != nil {
		return err
	}
	if *qasmPath == "" {
		return fmt.Errorf("-qasm is required")
	}
	src, err := os.ReadFile(*qasmPath)
	if err != nil {
		return err
	}
	stopTrace, err := traceFlags.Start()
	if err != nil {
		return err
	}
	stopLedger, err := ledgerFlags.Start()
	if err != nil {
		stopTrace()
		return err
	}
	t0 := time.Now()
	sim, err := simulate(string(src), *backend, *shots, *batch, *seed)
	if err == nil && obs.RunLedgerEnabled() {
		recordLedger(*qasmPath, src, *backend, *shots, sim, time.Since(t0).Seconds())
	}
	// Flush the trace and ledger even on failure; their own errors
	// surface only when the run otherwise succeeded.
	if terr := stopTrace(); err == nil {
		err = terr
	}
	if lerr := stopLedger(); err == nil {
		err = lerr
	}
	if err != nil {
		return err
	}
	obs.Logger().Info("simulated",
		"backend", *backend,
		"basis_gates", sim.TranspiledGates,
		"swaps", sim.Swaps,
		"schedule_s", sim.Lambda.Time,
		"lambda", sim.Lambda.Total())

	counts := sim.Raw
	if *ideal {
		counts = sim.Ideal
	}
	var out []byte
	if *meta {
		env := &results.File{
			Backend: *backend,
			Circuit: *qasmPath,
			Shots:   *shots,
			Seed:    *seed,
			Lambda:  sim.Lambda.Total(),
			Counts:  counts,
		}
		out, err = env.Encode()
		if err != nil {
			return err
		}
	} else {
		out, err = json.MarshalIndent(counts, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
	}
	if *outPath == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(*outPath, out, 0o644)
}

// simulate runs the synthetic induction under the "qbeep.pipeline" root
// span, so -trace output from qbeep-sim and qbeep share one analyzable
// shape (parse, transpile, ideal run and induction as children).
func simulate(src, backend string, shots, batch int, seed uint64) (*qbeep.SimResult, error) {
	ctx, sp := obs.Start(context.Background(), "qbeep.pipeline")
	defer sp.End()
	sim, err := qbeep.SimulateBatchedCtx(ctx, src, backend, shots, batch, seed)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("backend", backend)
	sp.SetAttr("shots", shots)
	if batch > 1 {
		sp.SetAttr("batch", batch)
	}
	return sim, nil
}

// recordLedger appends this induction's quality record: the simulator
// knows the exact noiseless distribution, so the record carries the raw
// counts' fidelity/Hellinger against it and the Hamming spectrum
// centered on the ideal mode — the pre-mitigation half of the quality
// story (cmd/qbeep appends the post-mitigation half).
func recordLedger(qasmPath string, src []byte, backend string, shots int, sim *qbeep.SimResult, simulateS float64) {
	rec := runledger.Record{
		Tool:        "qbeep-sim",
		Backend:     backend,
		Circuit:     filepath.Base(qasmPath),
		CircuitHash: runledger.HashBytes(src),
		Lambda:      sim.Lambda.Total(),
		Shots:       float64(shots),
		Stages:      []runledger.Stage{{Name: "simulate", WallS: simulateS}},
	}
	raw, err := bitstring.FromStringCounts(sim.Raw)
	if err == nil {
		if ideal, ierr := bitstring.FromStringCounts(sim.Ideal); ierr == nil {
			center, _ := ideal.Top()
			rec.Quality = runledger.Quality{
				FidelityRaw:    bitstring.Fidelity(ideal, raw),
				HellingerRaw:   bitstring.Hellinger(ideal, raw),
				SpectrumRef:    "expected",
				SpectrumBefore: raw.HammingSpectrum(center),
			}
		}
	}
	if err := obs.RecordRun(&rec); err != nil {
		obs.Logger().Warn("run-ledger append failed", "err", err)
	}
}
