// Package phys implements the physical-layer substrate of the reproduction:
// power units, radio propagation models, link-gain channels, and the paper's
// physical interference (SINR) feasibility test with separate data and ACK
// sub-slots (Section II of the paper).
package phys

import "math"

// DBm is a power level in decibel-milliwatts.
type DBm float64

// MilliWatts converts a dBm level to linear milliwatts.
func (d DBm) MilliWatts() float64 {
	return math.Pow(10, float64(d)/10)
}

// MilliWattsToDBm converts linear milliwatts to dBm. Zero or negative power
// maps to -Inf dBm.
func MilliWattsToDBm(mw float64) DBm {
	if mw <= 0 {
		return DBm(math.Inf(-1))
	}
	return DBm(10 * math.Log10(mw))
}

// DB is a dimensionless ratio expressed in decibels.
type DB float64

// Linear converts a dB ratio to a linear ratio.
func (d DB) Linear() float64 {
	return math.Pow(10, float64(d)/10)
}
