package phys

import (
	"fmt"
	"math"
)

// PathLoss converts a transmitter-receiver distance into a linear channel
// gain in (0, 1]. Received power is txPowerMW * Gain(d).
type PathLoss interface {
	// Gain returns the linear power gain at distance d meters. It must be a
	// pure function of d: BuildGainMatrix evaluates it once per distinct
	// distance and reuses the result.
	Gain(d float64) float64
}

// LogDistance is the log-distance path loss model,
//
//	PL(d) dB = RefLossDB + 10*Exponent*log10(d/RefDist),
//
// the deterministic component of the log-normal model the paper simulates
// with ("Log-normal propagation model was used with path loss of 3",
// Section VI-A). Distances below RefDist are clamped to RefDist so the gain
// never exceeds the reference gain.
type LogDistance struct {
	RefDist   float64 // reference distance in meters, typically 1
	RefLossDB float64 // path loss at the reference distance, in dB
	Exponent  float64 // path loss exponent alpha (paper uses 3)
}

// DefaultLogDistance returns the propagation model used throughout the
// reproduction unless overridden: 1 m reference, 40 dB reference loss
// (2.4 GHz-ish), path loss exponent 3 as in the paper.
func DefaultLogDistance() LogDistance {
	return LogDistance{RefDist: 1, RefLossDB: 40, Exponent: 3}
}

// Gain implements PathLoss.
func (l LogDistance) Gain(d float64) float64 {
	if d < l.RefDist {
		d = l.RefDist
	}
	// The conversion rounds the product on its own, so no compiler fuses it
	// into the add (amd64 never does, arm64 would): scripts/check_fma.sh.
	lossDB := l.RefLossDB + float64(10*l.Exponent*math.Log10(d/l.RefDist))
	return math.Pow(10, -lossDB/10)
}

// MaxRange returns the largest distance at which a transmission with the
// given TX power still achieves the SINR threshold beta against noise alone
// (no interference). This is the communication range r of Section IV-B.
func (l LogDistance) MaxRange(txPowerMW, noiseMW, betaLinear float64) float64 {
	if txPowerMW <= 0 || noiseMW <= 0 || betaLinear <= 0 {
		return 0
	}
	// Need txPowerMW * Gain(d) >= betaLinear*noiseMW.
	budgetDB := float64(10 * math.Log10(txPowerMW/(betaLinear*noiseMW))) // rounded before the subtraction, as in Gain
	exceedDB := budgetDB - l.RefLossDB
	if exceedDB < 0 {
		return 0
	}
	return l.RefDist * math.Pow(10, exceedDB/(10*l.Exponent))
}

// PowerForRange returns the TX power (mW) needed to achieve the SINR
// threshold beta at distance d against noise alone. It is the inverse of
// MaxRange and is used by topology builders that fix the range and derive
// the power.
func (l LogDistance) PowerForRange(d, noiseMW, betaLinear float64) float64 {
	if d < l.RefDist {
		d = l.RefDist
	}
	return betaLinear * noiseMW / l.Gain(d)
}

// Validate reports configuration errors.
func (l LogDistance) Validate() error {
	if l.RefDist <= 0 {
		return fmt.Errorf("phys: reference distance must be positive, got %v", l.RefDist)
	}
	if l.Exponent <= 0 {
		return fmt.Errorf("phys: path loss exponent must be positive, got %v", l.Exponent)
	}
	return nil
}
