// Package mote simulates the paper's Mica2-mote SCREAM feasibility
// experiment (Section V): one Initiator screams SMBytes every 100 ms, six
// Relays in a clique with the Monitor re-scream on RSSI detection (their
// transmissions collide at the Monitor by construction), and the Monitor
// detects screams from a 3-sample moving average of its RSSI readings. The
// measured quantity is the percentage of inter-detection intervals outside
// +/-5% of the 100 ms period, as a function of the SCREAM size in bytes
// (Figure 4), plus an RSSI moving-average trace (Figure 5).
//
// The paper ran this on Crossbow Mica2 hardware (CC1000 radio, nesC/TinyOS).
// We model the governing quantities directly: 19.2 kb/s effective bit rate
// (417 us per byte), a UART-limited RSSI sampling cadence, log-normal RSSI
// noise and a -60 dBm detection threshold.
package mote

import (
	"fmt"

	"scream/internal/des"
	"scream/internal/phys"
	"scream/internal/rng"
)

// Config parameterizes the mote experiment.
type Config struct {
	SMBytes   int // scream size in bytes (the swept variable)
	NumRelays int // relays in the clique (paper: 6)
	Screams   int // initiator screams per run (paper: 2000)

	Period       des.Time // initiator period (paper: 100 ms)
	ByteTime     des.Time // airtime per byte (CC1000: ~417 us)
	RelaySample  des.Time // relay RSSI sampling period
	MonitorEvery des.Time // monitor RSSI sampling period (UART-limited)
	AvgWindow    int      // moving-average window (paper: 3 samples)
	Lockout      des.Time // relay re-trigger lockout after transmitting
	Refractory   des.Time // monitor detection refractory period

	ThresholdDBm phys.DBm // detection threshold (paper: -60 dBm)
	NoiseFloor   phys.DBm // ambient RSSI with no transmission
	NoiseSigmaDB float64  // gaussian RSSI measurement noise (dB)

	// Received signal strengths for the fixed experiment geometry.
	InitiatorAtRelay   phys.DBm // relays hear the initiator well
	InitiatorAtMonitor phys.DBm // monitor is 2 hops away: below threshold
	RelayAtRelay       phys.DBm // clique: relays hear each other
	RelayAtMonitor     phys.DBm // monitor hears relays well

	Tolerance float64 // interval tolerance (paper: 0.05)
	Seed      int64
}

// DefaultConfig reproduces the paper's setup for a given scream size.
func DefaultConfig(smBytes int) Config {
	return Config{
		SMBytes:            smBytes,
		NumRelays:          6,
		Screams:            2000,
		Period:             100 * des.Millisecond,
		ByteTime:           417 * des.Microsecond,
		RelaySample:        500 * des.Microsecond,
		MonitorEvery:       1700 * des.Microsecond,
		AvgWindow:          3,
		Lockout:            40 * des.Millisecond,
		Refractory:         50 * des.Millisecond,
		ThresholdDBm:       -60,
		NoiseFloor:         -78,
		NoiseSigmaDB:       2.5,
		InitiatorAtRelay:   -52,
		InitiatorAtMonitor: -88,
		RelayAtRelay:       -45,
		RelayAtMonitor:     -48,
		Tolerance:          0.05,
		Seed:               1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SMBytes <= 0 {
		return fmt.Errorf("mote: SMBytes must be positive, got %d", c.SMBytes)
	}
	if c.NumRelays <= 0 || c.Screams <= 0 {
		return fmt.Errorf("mote: need relays and screams")
	}
	if c.Period <= 0 || c.ByteTime <= 0 || c.RelaySample <= 0 || c.MonitorEvery <= 0 {
		return fmt.Errorf("mote: all periods must be positive")
	}
	if c.AvgWindow <= 0 {
		return fmt.Errorf("mote: moving-average window must be positive")
	}
	if c.Tolerance <= 0 {
		return fmt.Errorf("mote: tolerance must be positive")
	}
	return nil
}

// TracePoint is one monitor moving-average sample.
type TracePoint struct {
	At  des.Time
	DBm float64
}

// Result summarizes one experiment run.
type Result struct {
	// ErrorPercent is the percentage of inter-detection intervals outside
	// +/-Tolerance of the period — the y axis of Figure 4.
	ErrorPercent float64
	// Detections is the number of screams the monitor detected.
	Detections int
	// Intervals are the measured inter-detection intervals.
	Intervals []des.Time
	// Trace is the monitor's moving-average RSSI over the first ~600 ms —
	// the Figure 5 snapshot.
	Trace []TracePoint
}

// Run executes the experiment.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rng.New(cfg.Seed)
	eng := des.New()
	airtime := des.Time(cfg.SMBytes) * cfg.ByteTime

	// Active transmissions, by source class.
	type span struct {
		start, end des.Time
		relay      bool // false: initiator
	}
	var active []span
	addTx := func(relay bool) {
		active = append(active, span{start: eng.Now(), end: eng.Now() + airtime, relay: relay})
	}
	// powerAt computes linear aggregate received power, plus noise floor.
	powerAt := func(monitor bool) float64 {
		now := eng.Now()
		total := cfg.NoiseFloor.MilliWatts()
		for _, s := range active {
			if now < s.start || now >= s.end {
				continue
			}
			var p phys.DBm
			switch {
			case monitor && s.relay:
				p = cfg.RelayAtMonitor
			case monitor && !s.relay:
				p = cfg.InitiatorAtMonitor
			case !monitor && s.relay:
				p = cfg.RelayAtRelay
			default:
				p = cfg.InitiatorAtRelay
			}
			total += p.MilliWatts()
		}
		return total
	}
	rssiDBm := func(monitor bool) float64 {
		return float64(phys.MilliWattsToDBm(powerAt(monitor))) + float64(rng.NormFloat64()*cfg.NoiseSigmaDB)
	}
	// Periodically prune expired spans so the active list stays small.
	prune := func() {
		now := eng.Now()
		kept := active[:0]
		for _, s := range active {
			if s.end > now {
				kept = append(kept, s)
			}
		}
		active = kept
	}

	// Initiator: Screams transmissions, one per period.
	for i := 0; i < cfg.Screams; i++ {
		at := des.Time(i) * cfg.Period
		eng.At(at, func() { addTx(false) })
	}
	endOfRun := des.Time(cfg.Screams)*cfg.Period + cfg.Period

	// Relays: sample RSSI; on threshold crossing outside lockout, scream.
	lockoutUntil := make([]des.Time, cfg.NumRelays)
	for r := 0; r < cfg.NumRelays; r++ {
		r := r
		var sample func()
		sample = func() {
			if eng.Now() >= endOfRun {
				return
			}
			prune()
			if eng.Now() >= lockoutUntil[r] && rssiDBm(false) > float64(cfg.ThresholdDBm) {
				addTx(true)
				lockoutUntil[r] = eng.Now() + airtime + cfg.Lockout
			}
			// Small per-relay jitter keeps relays from sampling in
			// pathological lockstep.
			eng.After(cfg.RelaySample+des.Time(rng.Int63n(int64(cfg.RelaySample/8)+1)), sample)
		}
		eng.At(des.Time(r)*cfg.RelaySample/des.Time(cfg.NumRelays), sample)
	}

	// Monitor: moving average over AvgWindow samples, rising-edge detector.
	res := &Result{}
	window := make([]float64, 0, cfg.AvgWindow)
	var lastDetect des.Time = -1
	var sinceAvg int
	prevMA := float64(cfg.NoiseFloor)
	traceCutoff := 6 * cfg.Period
	var monSample func()
	monSample = func() {
		if eng.Now() >= endOfRun {
			return
		}
		window = append(window, rssiDBm(true))
		if len(window) > cfg.AvgWindow {
			window = window[1:]
		}
		sinceAvg++
		// "The moving average ... was sampled after every 3 RSSI values
		// owing to device and UART limitations."
		if sinceAvg >= cfg.AvgWindow && len(window) == cfg.AvgWindow {
			sinceAvg = 0
			ma := 0.0
			for _, x := range window {
				ma += x
			}
			ma /= float64(len(window))
			if eng.Now() < traceCutoff {
				res.Trace = append(res.Trace, TracePoint{At: eng.Now(), DBm: ma})
			}
			rising := ma > float64(cfg.ThresholdDBm) && prevMA <= float64(cfg.ThresholdDBm)
			if rising && (lastDetect < 0 || eng.Now()-lastDetect >= cfg.Refractory) {
				if lastDetect >= 0 {
					res.Intervals = append(res.Intervals, eng.Now()-lastDetect)
				}
				res.Detections++
				lastDetect = eng.Now()
			}
			prevMA = ma
		}
		eng.After(cfg.MonitorEvery, monSample)
	}
	eng.At(0, monSample)

	eng.Run()

	// Score: an undetected scream manifests as a stretched interval, a
	// spurious detection as a shortened one; both fall outside the band.
	lo := float64(cfg.Period) * (1 - cfg.Tolerance)
	hi := float64(cfg.Period) * (1 + cfg.Tolerance)
	bad := 0
	for _, iv := range res.Intervals {
		if float64(iv) < lo || float64(iv) > hi {
			bad++
		}
	}
	// Missed screams that produce no interval at all (monitor saw almost
	// nothing) still count against the expected total.
	expected := cfg.Screams - 1
	missing := expected - len(res.Intervals)
	if missing < 0 {
		missing = 0
	}
	denom := expected
	if denom < 1 {
		denom = 1
	}
	res.ErrorPercent = 100 * float64(bad+missing) / float64(denom)
	return res, nil
}
