package densitymatrix

import (
	"context"
	"testing"

	"qbeep/internal/circuit"
)

// BenchmarkDensityEvolve measures the pair-stride density-matrix hot
// loops on an 8-qubit circuit with per-qubit noise channels (recorded in
// BENCH_sim.json).
func BenchmarkDensityEvolve(b *testing.B) {
	c := circuit.New("dm-bench", 8)
	for q := 0; q < 8; q++ {
		c.H(q)
	}
	for q := 0; q < 8; q++ {
		c.CX(q, (q+1)%8)
		c.RZ(0.3+0.1*float64(q), (q+1)%8)
		c.CX(q, (q+1)%8)
	}
	for q := 0; q < 8; q++ {
		c.RX(0.7, q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := NewBasis(context.Background(), 8, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range c.Gates {
			if err := d.Apply(g); err != nil {
				b.Fatal(err)
			}
		}
		for q := 0; q < 8; q++ {
			if err := d.Channel(q, Depolarizing(0.01)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
