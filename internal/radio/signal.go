package radio

import (
	"fmt"
	"math"
)

// PowerLevel is one discrete transmit power setting for the
// adaptive-power-control extension (paper §8). Level indices start at 1
// per the style guide; level 1 is full power.
type PowerLevel struct {
	// Index identifies the level; 1 is the highest power.
	Index int
	// OffsetDB is the power reduction from full power in dB (>= 0).
	OffsetDB float64
}

// PowerLevels builds n evenly spaced levels spanning spanDB dB below
// full power. n must be >= 1; level 1 always has offset 0.
func PowerLevels(n int, spanDB float64) ([]PowerLevel, error) {
	if n < 1 {
		return nil, fmt.Errorf("radio: need at least one power level, got %d", n)
	}
	if spanDB < 0 {
		return nil, fmt.Errorf("radio: negative power span %v dB", spanDB)
	}
	levels := make([]PowerLevel, n)
	for i := range levels {
		off := 0.0
		if n > 1 {
			off = spanDB * float64(i) / float64(n-1)
		}
		levels[i] = PowerLevel{Index: i + 1, OffsetDB: off}
	}
	return levels, nil
}

// RangeFactor converts a power reduction in dB into the multiplicative
// shrink factor of every distance threshold under a log-distance model
// with the given path-loss exponent: d' = d * 10^(-offset/(10 n)).
func RangeFactor(offsetDB, exponent float64) float64 {
	if exponent <= 0 {
		exponent = 3.0
	}
	return math.Pow(10, -offsetDB/(10*exponent))
}
