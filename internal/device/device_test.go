package device

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"qbeep/internal/mathx"
)

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(0, nil); err == nil {
		t.Error("zero qubits should error")
	}
	if _, err := NewTopology(3, []Edge{{0, 0}}); err == nil {
		t.Error("self-loop should error")
	}
	if _, err := NewTopology(3, []Edge{{0, 5}}); err == nil {
		t.Error("out-of-range edge should error")
	}
	topo, err := NewTopology(3, []Edge{{0, 1}, {1, 0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Edges()) != 2 {
		t.Errorf("duplicate edges not merged: %v", topo.Edges())
	}
}

func TestConnectedAndNeighbors(t *testing.T) {
	topo, _ := Linear(4)
	if !topo.Connected(1, 2) || !topo.Connected(2, 1) {
		t.Error("Connected should be symmetric")
	}
	if topo.Connected(0, 3) {
		t.Error("0 and 3 should not be coupled in a chain")
	}
	nb := topo.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Errorf("Neighbors(1) = %v", nb)
	}
}

func TestShortestPath(t *testing.T) {
	topo, _ := Linear(5)
	p, err := topo.ShortestPath(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v", p)
		}
	}
	p, _ = topo.ShortestPath(2, 2)
	if len(p) != 1 || p[0] != 2 {
		t.Errorf("self path = %v", p)
	}
	if _, err := topo.ShortestPath(0, 9); err == nil {
		t.Error("out-of-range endpoint should error")
	}
	// Disconnected graph.
	d, _ := NewTopology(4, []Edge{{0, 1}, {2, 3}})
	if _, err := d.ShortestPath(0, 3); err == nil {
		t.Error("disconnected pair should error")
	}
	if d.IsConnected() {
		t.Error("graph should report disconnected")
	}
}

func TestDistance(t *testing.T) {
	topo, _ := Ring(6)
	d, err := topo.Distance(0, 3)
	if err != nil || d != 3 {
		t.Errorf("ring distance = %d, %v", d, err)
	}
	d, _ = topo.Distance(0, 5)
	if d != 1 {
		t.Errorf("wraparound distance = %d", d)
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name  string
		topo  func() (*Topology, error)
		n     int
		edges int
	}{
		{"linear5", func() (*Topology, error) { return Linear(5) }, 5, 4},
		{"ring6", func() (*Topology, error) { return Ring(6) }, 6, 6},
		{"grid23", func() (*Topology, error) { return Grid(2, 3) }, 6, 7},
		{"all2all4", func() (*Topology, error) { return AllToAll(4) }, 4, 6},
		{"tshape", TShape, 5, 4},
	}
	for _, c := range cases {
		topo, err := c.topo()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if topo.N() != c.n || len(topo.Edges()) != c.edges {
			t.Errorf("%s: n=%d edges=%d want %d/%d", c.name, topo.N(), len(topo.Edges()), c.n, c.edges)
		}
		if !topo.IsConnected() {
			t.Errorf("%s: not connected", c.name)
		}
	}
	if _, err := Ring(2); err == nil {
		t.Error("tiny ring should error")
	}
	if _, err := Grid(0, 3); err == nil {
		t.Error("zero grid should error")
	}
}

func TestHeavyHex(t *testing.T) {
	topo, err := HeavyHex(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.IsConnected() {
		t.Error("heavy-hex should be connected")
	}
	if topo.N() <= 27 {
		t.Errorf("heavy-hex 3x9 has %d qubits, expected > 27", topo.N())
	}
	// Heavy-hex is sparse: max degree 3.
	for q := 0; q < topo.N(); q++ {
		if deg := len(topo.Neighbors(q)); deg > 3 {
			t.Errorf("qubit %d degree %d > 3", q, deg)
		}
	}
	if _, err := HeavyHex(0, 9); err == nil {
		t.Error("invalid heavy-hex should error")
	}
}

func TestNormEdge(t *testing.T) {
	if NormEdge(3, 1) != (Edge{A: 1, B: 3}) {
		t.Error("NormEdge did not order")
	}
}

func TestGenerateCalibrationValid(t *testing.T) {
	topo, _ := Grid(3, 3)
	cal := GenerateCalibration(topo, SuperconductingProfile(), mathx.NewRNG(1))
	if err := cal.Validate(topo); err != nil {
		t.Fatal(err)
	}
	for i, q := range cal.Qubits {
		if q.T2 > 2*q.T1 {
			t.Errorf("qubit %d violates T2 <= 2T1: %v %v", i, q.T1, q.T2)
		}
	}
	if cal.MeanT1() <= 0 || cal.MeanT2() <= 0 || cal.MeanReadoutError() <= 0 {
		t.Error("means should be positive")
	}
}

func TestGenerateCalibrationDeterministic(t *testing.T) {
	topo, _ := Linear(5)
	a := GenerateCalibration(topo, SuperconductingProfile(), mathx.NewRNG(9))
	b := GenerateCalibration(topo, SuperconductingProfile(), mathx.NewRNG(9))
	for i := range a.Qubits {
		if a.Qubits[i] != b.Qubits[i] {
			t.Fatal("same seed produced different calibration")
		}
	}
}

func TestQualityScaleDegrades(t *testing.T) {
	topo, _ := Linear(8)
	good := SuperconductingProfile()
	bad := SuperconductingProfile()
	bad.QualityScale = 3
	a := GenerateCalibration(topo, good, mathx.NewRNG(4))
	b := GenerateCalibration(topo, bad, mathx.NewRNG(4))
	if b.MeanReadoutError() <= a.MeanReadoutError() {
		t.Errorf("QualityScale did not degrade readout: %v vs %v",
			a.MeanReadoutError(), b.MeanReadoutError())
	}
}

func TestCalibrationValidateErrors(t *testing.T) {
	topo, _ := Linear(3)
	cal := GenerateCalibration(topo, SuperconductingProfile(), mathx.NewRNG(1))
	// Missing edge calibration.
	broken := &Calibration{Qubits: cal.Qubits, Gates1Q: cal.Gates1Q,
		Gates2Q: map[Edge]GateCalibration{}}
	if err := broken.Validate(topo); err == nil {
		t.Error("missing 2q calibration should error")
	}
	short := &Calibration{Qubits: cal.Qubits[:2], Gates1Q: cal.Gates1Q, Gates2Q: cal.Gates2Q}
	if err := short.Validate(topo); err == nil {
		t.Error("short qubit list should error")
	}
	negT := &Calibration{Qubits: append([]QubitCalibration(nil), cal.Qubits...),
		Gates1Q: cal.Gates1Q, Gates2Q: cal.Gates2Q}
	negT.Qubits[0].T1 = -1
	if err := negT.Validate(topo); err == nil {
		t.Error("negative T1 should error")
	}
}

func TestCatalogShape(t *testing.T) {
	backends, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(backends) != 16 {
		t.Fatalf("catalog size %d want 16", len(backends))
	}
	seen := map[string]bool{}
	minN, maxN := 1<<30, 0
	for _, b := range backends {
		if seen[b.Name] {
			t.Errorf("duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if b.Architecture != Superconducting {
			t.Errorf("%s: architecture %s", b.Name, b.Architecture)
		}
		if b.N() < minN {
			minN = b.N()
		}
		if b.N() > maxN {
			maxN = b.N()
		}
	}
	if minN != 5 {
		t.Errorf("smallest backend %d qubits, want 5", minN)
	}
	if maxN < 100 {
		t.Errorf("largest backend %d qubits, want >= 100 (Eagle-class)", maxN)
	}
}

// TestCatalogDeterministic pins the memoized fleet to a fresh draw from
// the per-machine seeds: sharing one build must not change a single
// calibration value.
func TestCatalogDeterministic(t *testing.T) {
	memo, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := buildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memo, fresh) {
		t.Fatal("memoized catalog differs from a fresh build")
	}
	ion, err := IonBackend()
	if err != nil {
		t.Fatal(err)
	}
	freshIon, err := buildIonBackend()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ion, freshIon) {
		t.Fatal("memoized ion backend differs from a fresh build")
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("galway")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "galway" {
		t.Errorf("got %q", b.Name)
	}
	if again, _ := ByName("galway"); again != b {
		t.Error("repeated ByName returned a different backend")
	}
	if _, err := ByName("nowhere"); err == nil {
		t.Error("unknown name should error")
	}
}

// TestCatalogFreshSlice checks the shared fleet cannot be altered through
// a returned slice: callers append to and reslice what Catalog returns.
func TestCatalogFreshSlice(t *testing.T) {
	first, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	ion, err := IonBackend()
	if err != nil {
		t.Fatal(err)
	}
	grown := append(first[:3], ion)
	first[0] = nil
	if len(grown) != 4 || grown[3] != ion {
		t.Fatalf("append result = %v", grown)
	}
	next, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 16 {
		t.Fatalf("catalog size %d after a caller appended", len(next))
	}
	fresh, err := buildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range next {
		if b == nil || b.Name != fresh[i].Name {
			t.Fatalf("catalog[%d] = %v after a caller wrote its slice, want %s", i, b, fresh[i].Name)
		}
	}
}

// TestCatalogLookupsAllocFree pins the per-job cost of resolving and
// re-validating a shared backend at zero allocations.
func TestCatalogLookupsAllocFree(t *testing.T) {
	b, err := ByName("istanbul")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ByName("istanbul"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm ByName allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate of a catalog backend allocates %v times per call", n)
	}
}

// TestCatalogConcurrent resolves backends from many goroutines at once,
// the way par workers do; run under -race it checks the one-time build
// and the shared reads.
func TestCatalogConcurrent(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	got := make([]*Backend, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			all, err := Catalog()
			if err != nil {
				t.Error(err)
				return
			}
			b, err := ByName(all[w].Name)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := IonBackend(); err != nil {
				t.Error(err)
				return
			}
			if err := b.Validate(); err != nil {
				t.Error(err)
				return
			}
			got[w] = b
		}(w)
	}
	wg.Wait()
	all, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for w, b := range got {
		if b != all[w] {
			t.Errorf("worker %d resolved %p, want the shared %p", w, b, all[w])
		}
	}
}

func TestIonBackend(t *testing.T) {
	b, err := IonBackend()
	if err != nil {
		t.Fatal(err)
	}
	if b.Architecture != TrappedIon || b.N() != 5 {
		t.Errorf("ion backend: %s %d qubits", b.Architecture, b.N())
	}
	// All-to-all: every pair coupled.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if !b.Topology.Connected(i, j) {
				t.Errorf("ion backend missing coupling (%d,%d)", i, j)
			}
		}
	}
	// Ion coherence should dominate superconducting.
	sc, _ := ByName("auckland")
	if b.Calibration.MeanT1() <= sc.Calibration.MeanT1() {
		t.Error("ion T1 should exceed superconducting T1")
	}
}

func TestCatalogSubset(t *testing.T) {
	subset, err := CatalogSubset(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 8 {
		t.Fatalf("subset size %d", len(subset))
	}
	for _, b := range subset {
		if b.N() < 12 {
			t.Errorf("%s has %d qubits < 12", b.Name, b.N())
		}
	}
	if _, err := CatalogSubset(100, 5); err == nil {
		t.Error("oversized request should error")
	}
}

func TestBackendJSONRoundTrip(t *testing.T) {
	orig, err := ByName("eldorado")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Backend
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.N() != orig.N() {
		t.Error("identity fields lost")
	}
	if len(back.Topology.Edges()) != len(orig.Topology.Edges()) {
		t.Error("edges lost")
	}
	for _, e := range orig.Topology.Edges() {
		if back.Calibration.Gates2Q[e] != orig.Calibration.Gates2Q[e] {
			t.Errorf("2q calibration for %v lost", e)
		}
	}
	for i := range orig.Calibration.Qubits {
		if back.Calibration.Qubits[i] != orig.Calibration.Qubits[i] {
			t.Errorf("qubit %d calibration lost", i)
		}
	}
}

func TestBackendUnmarshalRejectsBad(t *testing.T) {
	var b Backend
	if err := json.Unmarshal([]byte(`{"name":"x","num_qubits":0}`), &b); err == nil {
		t.Error("zero qubits should fail validation")
	}
	if err := json.Unmarshal([]byte(`{bad json`), &b); err == nil {
		t.Error("malformed json should error")
	}
}

func TestShortestPathIsShortest(t *testing.T) {
	topo, _ := Grid(4, 4)
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw%16), int(bRaw%16)
		p, err := topo.ShortestPath(a, b)
		if err != nil {
			return false
		}
		// Path endpoints and adjacency.
		if p[0] != a || p[len(p)-1] != b {
			return false
		}
		for i := 0; i+1 < len(p); i++ {
			if !topo.Connected(p[i], p[i+1]) {
				return false
			}
		}
		// Manhattan distance on the grid is the true shortest length.
		manhattan := abs(a/4-b/4) + abs(a%4-b%4)
		return len(p)-1 == manhattan
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestGate2Q(t *testing.T) {
	b, _ := ByName("carthage")
	if _, ok := b.Calibration.Gate2Q(0, 1); !ok {
		t.Error("coupled pair should have calibration")
	}
	if _, ok := b.Calibration.Gate2Q(1, 0); !ok {
		t.Error("reversed pair should resolve via NormEdge")
	}
	if _, ok := b.Calibration.Gate2Q(0, 6); ok {
		t.Error("uncoupled pair should miss")
	}
}
