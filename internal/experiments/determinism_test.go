package experiments

import (
	"context"
	"math"
	"testing"
)

// TestRunnersDeterministic guards the reproducibility contract: the same
// Config must produce bit-identical results regardless of the parallel
// fan-out (every task owns a pre-split RNG).
func TestRunnersDeterministic(t *testing.T) {
	cfg := QuickConfig()

	a7, err := Figure7(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b7, err := Figure7(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a7.Cases) != len(b7.Cases) {
		t.Fatalf("case counts differ: %d vs %d", len(a7.Cases), len(b7.Cases))
	}
	for i := range a7.Cases {
		if a7.Cases[i] != b7.Cases[i] {
			t.Fatalf("Figure7 case %d differs:\n%+v\n%+v", i, a7.Cases[i], b7.Cases[i])
		}
	}

	a6, err := Figure6(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b6, err := Figure6(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a6.MeanQBeep-b6.MeanQBeep) > 0 {
		t.Fatalf("Figure6 mean differs: %v vs %v", a6.MeanQBeep, b6.MeanQBeep)
	}
	if len(a6.Samples) != len(b6.Samples) {
		t.Fatalf("Figure6 sample counts differ")
	}

	a10, err := Figure10(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b10, err := Figure10(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a10.Cases {
		if a10.Cases[i] != b10.Cases[i] {
			t.Fatalf("Figure10 case %d differs", i)
		}
	}

	a8, err := RunQASMBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := RunQASMBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a8.Cells {
		if a8.Cells[i] != b8.Cells[i] {
			t.Fatalf("QASMBench cell %d differs", i)
		}
	}
}
