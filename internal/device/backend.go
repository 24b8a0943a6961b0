package device

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"qbeep/internal/mathx"
)

// Architecture distinguishes the two NISQ technologies the paper studies.
type Architecture string

const (
	Superconducting Architecture = "superconducting"
	TrappedIon      Architecture = "trapped-ion"
)

// Backend is a complete processor model: identity, topology and the
// current calibration snapshot. It is everything Q-BEEP's λ estimator and
// the noisy executor need.
type Backend struct {
	Name         string
	Architecture Architecture
	Topology     *Topology
	Calibration  *Calibration
}

// Validate checks the backend is internally consistent.
func (b *Backend) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("device: backend without a name")
	}
	if b.Topology == nil || b.Calibration == nil {
		return fmt.Errorf("device: backend %q missing topology or calibration", b.Name)
	}
	return b.Calibration.Validate(b.Topology)
}

// N returns the backend's qubit count.
func (b *Backend) N() int { return b.Topology.N() }

// spec describes one synthetic machine in the catalog. Names are fictional
// but follow IBMQ's city-name convention; sizes and topologies mirror the
// Falcon/Hummingbird/Eagle generations the paper's 5–127-qubit fleet spans.
type spec struct {
	name    string
	build   func() (*Topology, error)
	quality float64 // QualityScale: >1 noisier than the fleet median
	seed    uint64
}

func catalogSpecs() []spec {
	return []spec{
		{"auckland", func() (*Topology, error) { return TShape() }, 0.9, 101},
		{"bengal", func() (*Topology, error) { return TShape() }, 1.4, 102},
		{"carthage", func() (*Topology, error) { return Linear(7) }, 0.8, 103},
		{"dresden", func() (*Topology, error) { return Linear(7) }, 1.2, 104},
		{"eldorado", func() (*Topology, error) { return Grid(3, 4) }, 1.0, 105},
		{"fukuoka", func() (*Topology, error) { return Grid(3, 4) }, 1.6, 106},
		{"galway", func() (*Topology, error) { return Ring(12) }, 0.7, 107},
		{"hanoi2", func() (*Topology, error) { return Ring(16) }, 1.1, 108},
		{"istanbul", func() (*Topology, error) { return HeavyHex(3, 9) }, 0.8, 109},
		{"jakarta2", func() (*Topology, error) { return HeavyHex(3, 9) }, 1.3, 110},
		{"kyiv", func() (*Topology, error) { return HeavyHex(4, 11) }, 0.9, 111},
		{"lagos2", func() (*Topology, error) { return HeavyHex(4, 11) }, 1.5, 112},
		{"medellin", func() (*Topology, error) { return HeavyHex(5, 13) }, 1.0, 113},
		{"nairobi2", func() (*Topology, error) { return HeavyHex(5, 13) }, 1.8, 114},
		{"oslo2", func() (*Topology, error) { return HeavyHex(6, 15) }, 1.1, 115},
		{"pinnacle", func() (*Topology, error) { return HeavyHex(7, 15) }, 1.2, 116},
	}
}

// fleet is the catalog, built once per process on first use. Its backends
// are shared by every caller and never written after construction.
var fleet = sync.OnceValues(buildCatalog)

// ionBackend is the trapped-ion backend, built once like the catalog.
var ionBackend = sync.OnceValues(buildIonBackend)

// Catalog returns the 16 synthetic superconducting backends standing in for
// the paper's IBMQ fleet. Calibrations are deterministic (fixed per-machine
// seeds). The backends are built once per process and shared: every call
// returns the same read-only *Backend values, in a fresh slice the caller
// may append to or reslice.
func Catalog() ([]*Backend, error) {
	all, err := fleet()
	if err != nil {
		return nil, err
	}
	return slices.Clone(all), nil
}

// buildCatalog draws the catalog's topologies and calibrations from the
// per-machine seeds.
func buildCatalog() ([]*Backend, error) {
	specs := catalogSpecs()
	backends := make([]*Backend, 0, len(specs))
	for _, s := range specs {
		topo, err := s.build()
		if err != nil {
			return nil, fmt.Errorf("device: building %s: %w", s.name, err)
		}
		prof := SuperconductingProfile()
		prof.QualityScale = s.quality
		cal := GenerateCalibration(topo, prof, mathx.NewRNG(s.seed))
		b := &Backend{
			Name:         s.name,
			Architecture: Superconducting,
			Topology:     topo,
			Calibration:  cal,
		}
		if err := b.Validate(); err != nil {
			return nil, err
		}
		backends = append(backends, b)
	}
	return backends, nil
}

// ByName returns the shared, read-only catalog backend with the given name.
func ByName(name string) (*Backend, error) {
	all, err := fleet()
	if err != nil {
		return nil, err
	}
	for _, b := range all {
		if b.Name == name {
			return b, nil
		}
	}
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("device: unknown backend %q (have %v)", name, names)
}

// IonBackend returns the synthetic 5-qubit trapped-ion backend standing in
// for IonQ's processor in Fig. 4(b). Like the catalog, it is built once
// and shared read-only.
func IonBackend() (*Backend, error) { return ionBackend() }

func buildIonBackend() (*Backend, error) {
	topo, err := AllToAll(5)
	if err != nil {
		return nil, err
	}
	cal := GenerateCalibration(topo, TrappedIonProfile(), mathx.NewRNG(777))
	b := &Backend{
		Name:         "ion-5",
		Architecture: TrappedIon,
		Topology:     topo,
		Calibration:  cal,
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// CatalogSubset returns the first k catalog backends whose qubit count is
// at least minQubits, erroring if fewer than k qualify. Experiment runners
// use it to pick fleets for a given circuit width.
func CatalogSubset(k, minQubits int) ([]*Backend, error) {
	all, err := fleet()
	if err != nil {
		return nil, err
	}
	var out []*Backend
	for _, b := range all {
		if b.N() >= minQubits {
			out = append(out, b)
		}
		if len(out) == k {
			return out, nil
		}
	}
	return nil, fmt.Errorf("device: only %d backends with >= %d qubits, need %d", len(out), minQubits, k)
}
