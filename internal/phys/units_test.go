package phys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBmConversions(t *testing.T) {
	tests := []struct {
		dbm DBm
		mw  float64
	}{
		{0, 1},
		{10, 10},
		{20, 100},
		{-10, 0.1},
		{-30, 0.001},
		{3, 1.9952623149688795},
	}
	for _, tt := range tests {
		if got := tt.dbm.MilliWatts(); math.Abs(got-tt.mw) > 1e-9*tt.mw {
			t.Errorf("%v dBm = %v mW, want %v", tt.dbm, got, tt.mw)
		}
		if got := MilliWattsToDBm(tt.mw); math.Abs(float64(got-tt.dbm)) > 1e-9 {
			t.Errorf("%v mW = %v dBm, want %v", tt.mw, got, tt.dbm)
		}
	}
}

func TestDBmRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		d := DBm(math.Mod(x, 200)) // keep within sane dynamic range
		back := MilliWattsToDBm(d.MilliWatts())
		return math.Abs(float64(back-d)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMilliWattsToDBmEdge(t *testing.T) {
	if got := MilliWattsToDBm(0); !math.IsInf(float64(got), -1) {
		t.Errorf("0 mW should be -Inf dBm, got %v", got)
	}
	if got := MilliWattsToDBm(-5); !math.IsInf(float64(got), -1) {
		t.Errorf("negative mW should be -Inf dBm, got %v", got)
	}
}

func TestDBLinear(t *testing.T) {
	if got := DB(10).Linear(); math.Abs(got-10) > 1e-12 {
		t.Errorf("10 dB = %v, want 10", got)
	}
	if got := DB(3).Linear(); math.Abs(got-1.9952623149688795) > 1e-12 {
		t.Errorf("3 dB = %v", got)
	}
}
