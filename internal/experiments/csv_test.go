package experiments

import (
	"context"
	"encoding/csv"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, s)
	}
	return rows
}

func TestSpectrumCSV(t *testing.T) {
	s := &SpectrumResult{
		Qubits: 3, Backend: "galway", Lambda: 0.7,
		Rows: []SpectrumRow{{Distance: 1, Observed: 0.6, QBeep: 0.55, Hammer: 0.66}},
	}
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, b.String())
	if len(rows) != 2 || rows[0][0] != "qubits" || rows[1][1] != "galway" {
		t.Errorf("rows: %v", rows)
	}
}

func TestFigureCSVsFromQuickRun(t *testing.T) {
	cfg := QuickConfig()

	f4, err := Figure4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b4 strings.Builder
	if err := f4.WriteCSV(&b4); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, b4.String())
	if len(rows) < 10 {
		t.Errorf("fig4 csv rows: %d", len(rows))
	}
	archs := map[string]bool{}
	for _, r := range rows[1:] {
		archs[r[0]] = true
	}
	if !archs["superconducting"] || !archs["trapped-ion"] {
		t.Errorf("architectures missing: %v", archs)
	}

	f7, err := Figure7(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b7 strings.Builder
	if err := f7.WriteCSV(&b7); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, b7.String())
	if len(rows) != len(f7.Cases)+1 {
		t.Errorf("fig7 csv rows %d want %d", len(rows), len(f7.Cases)+1)
	}
	if len(rows[0]) != 9 {
		t.Errorf("fig7 header: %v", rows[0])
	}

	f8, err := RunQASMBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b8 strings.Builder
	if err := f8.WriteCSV(&b8); err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, b8.String())); got != len(f8.Cells)+1 {
		t.Errorf("fig8 csv rows %d", got)
	}
}

func TestCSVName(t *testing.T) {
	if CSVName("7") != "figure7.csv" {
		t.Errorf("CSVName = %q", CSVName("7"))
	}
}
