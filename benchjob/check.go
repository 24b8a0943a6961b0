package main

import (
	"fmt"
	"math"

	"qbeep"
	"qbeep/internal/bitstring"
)

// Tolerances of the output check. Mass and the two quality scores may
// move by summation reordering only; anything larger is a behaviour
// change.
const (
	massTol    = 1e-9 // relative
	qualityTol = 1e-9 // absolute, on fidelity and Hellinger shift
)

// quality is one job's scores: the Bhattacharyya fidelity of the
// mitigated output to the ideal distribution and the raw→mitigated
// Hellinger shift.
type quality struct {
	Fidelity float64 `json:"fidelity"`
	Shift    float64 `json:"shift"`
}

// checkOutput applies the per-job output check behind error_rate: mass
// conserved, every value finite and non-negative, the register width
// unchanged, and (when ref is non-nil) both quality scores equal to the
// recorded reference within qualityTol. ideal is nil for counts-only
// jobs (see score).
func checkOutput(raw, ideal, out qbeep.Counts, ref *quality) (quality, error) {
	width := -1
	var rawMass float64
	for k, v := range raw {
		width = len(k)
		rawMass += v
	}
	if len(out) == 0 {
		return quality{}, fmt.Errorf("empty output")
	}
	var outMass float64
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return quality{}, fmt.Errorf("outcome %q has count %v", k, v)
		}
		if len(k) != width {
			return quality{}, fmt.Errorf("outcome %q has width %d, input width %d", k, len(k), width)
		}
		outMass += v
	}
	if math.Abs(outMass-rawMass) > massTol*rawMass {
		return quality{}, fmt.Errorf("mass %v, input mass %v", outMass, rawMass)
	}
	q, err := score(raw, ideal, out)
	if err != nil {
		return quality{}, err
	}
	if ref != nil {
		if d := math.Abs(q.Fidelity - ref.Fidelity); !(d <= qualityTol) {
			return q, fmt.Errorf("fidelity %v, reference %v", q.Fidelity, ref.Fidelity)
		}
		if d := math.Abs(q.Shift - ref.Shift); !(d <= qualityTol) {
			return q, fmt.Errorf("hellinger shift %v, reference %v", q.Shift, ref.Shift)
		}
	}
	return q, nil
}

// score computes what qbeep.Fidelity(out, ideal) computes, converting
// each map once. Counts-only jobs have no noiseless circuit (ideal is
// nil): they are scored against their input, so the fidelity is
// (1 − shift²)² and still catches a change in how far mitigation moves the
// distribution.
func score(raw, ideal, out qbeep.Counts) (quality, error) {
	r, err := bitstring.FromStringCounts(raw)
	if err != nil {
		return quality{}, err
	}
	o, err := bitstring.FromStringCounts(out)
	if err != nil {
		return quality{}, err
	}
	i := r
	if ideal != nil {
		if i, err = bitstring.FromStringCounts(ideal); err != nil {
			return quality{}, err
		}
	}
	if i.Width() != o.Width() {
		return quality{}, fmt.Errorf("ideal width %d, output width %d", i.Width(), o.Width())
	}
	return quality{Fidelity: bitstring.Fidelity(o, i), Shift: bitstring.Hellinger(r, o)}, nil
}

// selfTest proves the check is live: a clean output passes, and each
// deliberately corrupted copy of it is counted as failed.
func selfTest(raw, ideal, out qbeep.Counts) error {
	ref, err := checkOutput(raw, ideal, out, nil)
	if err != nil {
		return fmt.Errorf("clean output rejected: %w", err)
	}
	if _, err := checkOutput(raw, ideal, out, &ref); err != nil {
		return fmt.Errorf("clean output rejected against its own reference: %w", err)
	}
	var top, second string
	var mass float64
	for k, v := range out {
		mass += v
		if top == "" || v > out[top] || (v == out[top] && k < top) {
			top = k
		}
	}
	for k, v := range out {
		if k != top && (second == "" || v > out[second] || (v == out[second] && k < second)) {
			second = k
		}
	}
	corruptions := []struct {
		name string
		edit func(m qbeep.Counts)
	}{
		{"mass gain", func(m qbeep.Counts) { m[top] += 1e-6 * mass }},
		{"NaN count", func(m qbeep.Counts) { m[top] = math.NaN() }},
		{"negative count", func(m qbeep.Counts) { m[second] = -m[second]; m[top] += 2 * out[second] }},
		{"wider register", func(m qbeep.Counts) { m["0"+top] = m[top]; delete(m, top) }},
		{"mass moved", func(m qbeep.Counts) { m[top] += out[second] / 2; m[second] /= 2 }},
	}
	for _, c := range corruptions {
		m := make(qbeep.Counts, len(out))
		for k, v := range out {
			m[k] = v
		}
		c.edit(m)
		if _, err := checkOutput(raw, ideal, m, &ref); err == nil {
			return fmt.Errorf("corrupted output (%s) passed the check", c.name)
		}
	}
	return nil
}
