package core

import (
	"context"
	"fmt"
	"math"

	"qbeep/internal/bitstring"
	"qbeep/internal/par"
)

// EnsembleMember is one induction of the same logical circuit — typically
// on a different backend or with a different layout — with its own
// pre-induction λ estimate.
type EnsembleMember struct {
	Counts *bitstring.Dist
	Lambda float64
}

// MitigateEnsembleCtx applies Q-BEEP to each member and merges the mitigated
// distributions with quality weights w_i = e^(-λ_i): members whose model
// predicts fewer failure events contribute more. This implements the
// composition the paper sketches in §3.5 (Quancorde-style ensembles
// "enhance the baseline fidelity … thereby amplifying the benefits of
// Q-BEEP"): the ensemble raises the weight of cleaner inductions, Q-BEEP
// cleans each one first.
//
// The returned distribution is normalized to the mean member total, so it
// remains comparable to a single induction's counts. Each member's
// "core.mitigate" span parents under the fan-out's worker span in ctx.
func MitigateEnsembleCtx(ctx context.Context, members []EnsembleMember, opts Options) (*bitstring.Dist, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: empty ensemble")
	}
	width := members[0].Counts.Width()
	var meanTotal float64
	for i, m := range members {
		if m.Counts == nil || m.Counts.Support() == 0 {
			return nil, fmt.Errorf("core: ensemble member %d has no counts", i)
		}
		if m.Counts.Width() != width {
			return nil, fmt.Errorf("core: ensemble member %d width %d vs %d", i, m.Counts.Width(), width)
		}
		if m.Lambda < 0 {
			return nil, fmt.Errorf("core: ensemble member %d negative lambda", i)
		}
		meanTotal += m.Counts.Total()
	}
	meanTotal /= float64(len(members))

	// Members are independent mitigations: fan them out and merge in
	// member order, so the result is identical to a serial loop
	// regardless of GOMAXPROCS.
	mitigated := make([]*bitstring.Dist, len(members))
	if _, err := par.ForEach(ctx, len(members), 0, func(ctx context.Context, i int) error {
		out, err := MitigateCtx(ctx, members[i].Counts, members[i].Lambda, opts)
		if err != nil {
			return fmt.Errorf("core: ensemble member %d: %w", i, err)
		}
		mitigated[i] = out
		return nil
	}); err != nil {
		return nil, err
	}
	merged := bitstring.NewDist(width)
	var weightSum float64
	for i, m := range members {
		w := math.Exp(-m.Lambda)
		weightSum += w
		norm := mitigated[i].Normalized(1)
		norm.Each(func(v bitstring.BitString, p float64) {
			merged.Add(v, w*p)
		})
	}
	if weightSum <= 0 || merged.Total() == 0 {
		return nil, fmt.Errorf("core: ensemble weights vanished")
	}
	return merged.Normalized(meanTotal), nil
}
