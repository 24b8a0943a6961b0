package noise

import (
	"context"
	"testing"

	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
)

// uniformBackend builds a backend with exactly-known uniform error rates,
// so executor output can be checked against closed forms.
func uniformBackend(t *testing.T, n int, err1q, err2q, readout float64) *device.Backend {
	t.Helper()
	topo, err := device.AllToAll(n)
	if err != nil {
		t.Fatal(err)
	}
	cal := &device.Calibration{
		Qubits:  make([]device.QubitCalibration, n),
		Gates1Q: make([]device.GateCalibration, n),
		Gates2Q: make(map[device.Edge]device.GateCalibration),
	}
	for q := 0; q < n; q++ {
		cal.Qubits[q] = device.QubitCalibration{T1: 1, T2: 1, ReadoutError: readout}
		cal.Gates1Q[q] = device.GateCalibration{Error: err1q, Duration: 1e-9}
	}
	for _, e := range topo.Edges() {
		cal.Gates2Q[e] = device.GateCalibration{Error: err2q, Duration: 1e-9}
	}
	b := &device.Backend{
		Name:         "uniform-test",
		Architecture: device.Superconducting,
		Topology:     topo,
		Calibration:  cal,
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFastExecutorLambdaMatchesRealizedEHD checks the fast executor's
// self-consistency: the realized expected Hamming distance of a
// deterministic-output circuit approaches the configured event intensity
// (minus toggle losses), making EventRates an honest λ ground truth.
func TestFastExecutorLambdaMatchesRealizedEHD(t *testing.T) {
	b := uniformBackend(t, 8, 0.004, 0.01, 0)
	model := Model{GateErrors: true} // single clean channel
	exec, err := NewExecutor(b, model)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("ones", 8)
	for q := 0; q < 8; q++ {
		c.X(q)
	}
	for r := 0; r < 30; r++ {
		c.Barrier()
		for q := 0; q < 8; q++ {
			c.RZ(0.3, q)
		}
	}
	c.MeasureAll()
	run, err := exec.ExecuteCtx(context.Background(), c, 20000, mathx.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	lambda := run.Rates.TotalLambda()
	if lambda <= 0.1 {
		t.Fatalf("test needs a visible rate, got %v", lambda)
	}
	ehd := run.Counts.ExpectedHamming(0b11111111)
	// Toggle losses make EHD slightly below λ; they can never exceed it.
	if ehd > lambda*1.02 {
		t.Errorf("EHD %v exceeds configured λ %v", ehd, lambda)
	}
	if ehd < lambda*0.80 {
		t.Errorf("EHD %v too far below λ %v (excess toggling?)", ehd, lambda)
	}
}

// TestFastExecutorSpectrumIsPoissonLike: for a pooled-Poisson gate
// channel, the full Hamming spectrum around the deterministic output
// should fit a Poisson with IoD ≈ 1.
func TestFastExecutorSpectrumIsPoissonLike(t *testing.T) {
	b := uniformBackend(t, 10, 0.003, 0.008, 0)
	exec, err := NewExecutor(b, Model{GateErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("deep", 10)
	for r := 0; r < 40; r++ {
		for q := 0; q < 10; q++ {
			c.SX(q)
		}
		c.Barrier()
	}
	c.MeasureAll()
	run, err := exec.ExecuteCtx(context.Background(), c, 20000, mathx.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	// Ideal output of SX^(4k) is |0...0⟩ (SX has order 4 up to phase).
	spec := run.Counts.HammingSpectrum(0)
	iod, err := mathx.SpectrumIoD(spec)
	if err != nil {
		t.Fatal(err)
	}
	if iod < 0.85 || iod > 1.15 {
		t.Errorf("IoD %v should be ≈ 1 for the pure Poisson channel", iod)
	}
}
