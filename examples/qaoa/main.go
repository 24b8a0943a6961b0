// QAOA MaxCut mitigation (paper §4.4 scenario): build QAOA instances on
// random 3-regular graphs, induce them on noisy synthetic backends,
// mitigate with Q-BEEP, and report the Cost Ratio before and after — a
// miniature of the paper's Fig. 10.
//
//	go run ./examples/qaoa
package main

import (
	"context"
	"fmt"
	"log"

	"qbeep"
	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
	"qbeep/internal/qaoa"
	"qbeep/internal/qasm"
)

func main() {
	rng := mathx.NewRNG(11)
	instances, err := qaoa.Dataset(context.Background(), 8, 6, 10, 2, rng)
	if err != nil {
		log.Fatal(err)
	}
	machines := []string{"galway", "istanbul", "kyiv", "medellin"}

	fmt.Printf("%-3s %-2s %-10s %9s %9s %7s %8s\n",
		"n", "p", "machine", "cr-raw", "cr-qb", "gain", "lambda")

	var gains []float64
	for i, inst := range instances {
		m := machines[i%len(machines)]
		src, err := qasm.Write(inst.Circuit)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := qbeep.Simulate(src, m, 4096, rng.Uint64())
		if err != nil {
			log.Fatal(err)
		}
		mitigated, err := qbeep.Mitigate(sim.Raw, sim.Lambda.Total(), qbeep.NewOptions())
		if err != nil {
			log.Fatal(err)
		}
		rawDist, err := bitstring.FromStringCounts(sim.Raw)
		if err != nil {
			log.Fatal(err)
		}
		qbDist, err := bitstring.FromStringCounts(mitigated)
		if err != nil {
			log.Fatal(err)
		}
		crRaw, err := inst.Graph.CostRatio(rawDist)
		if err != nil {
			log.Fatal(err)
		}
		crQB, err := inst.Graph.CostRatio(qbDist)
		if err != nil {
			log.Fatal(err)
		}
		gain := 1.0
		if crRaw > 1e-9 {
			gain = crQB / crRaw
		}
		gains = append(gains, gain)
		fmt.Printf("%-3d %-2d %-10s %9.4f %9.4f %6.2fx %8.3f\n",
			inst.Graph.N, inst.P, m, crRaw, crQB, gain, sim.Lambda.Total())
	}

	fmt.Printf("\nmean CR improvement: %.2fx over %d solutions (paper reports 1.71x on the Sycamore dataset)\n",
		mathx.Mean(gains), len(gains))
}
