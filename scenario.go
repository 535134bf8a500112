package scream

// The serializable scenario API: one JSON document describing a complete
// flow-level experiment — topology, radio environment, traffic, scheduler,
// dynamics — and one entrypoint, Run, that executes it. The screamd daemon,
// the flowsim CLI and library callers all consume the same ScenarioSpec, so
// a scenario POSTed to the daemon is bit-for-bit the run a local caller gets
// from Run with the same spec. Unknown JSON fields are rejected (strict
// decoding): a typoed knob fails loudly instead of silently running the
// default.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"scream/internal/dynam"
	"scream/internal/flow"
	"scream/internal/obs"
	"scream/internal/phys"
	"scream/internal/phys/spatial"
	"scream/internal/topo"
)

// TopologySpec describes a mesh deployment: the only description NewMesh
// and ScenarioSpec accept. The zero value of each optional knob selects its
// default.
type TopologySpec struct {
	// Kind selects the deployment generator: "grid" (planned, Rows x Cols at
	// StepMeters spacing), "uniform" (Nodes drawn uniformly in a SideMeters
	// square, redrawn until connected) or "line" (Nodes in a row at
	// StepMeters spacing).
	Kind string `json:"kind"`

	// Grid and line knobs.
	Rows       int     `json:"rows,omitempty"`
	Cols       int     `json:"cols,omitempty"`
	StepMeters float64 `json:"step_m,omitempty"`
	// TxPowerDBm is the common transmit power of a grid (0 derives it from
	// the grid step).
	TxPowerDBm float64 `json:"tx_dbm,omitempty"`
	// RangeSlack is the line deployment's communication range in grid steps
	// (0 = the 1.05 default).
	RangeSlack float64 `json:"range_slack,omitempty"`

	// Uniform and line knobs.
	Nodes      int     `json:"nodes,omitempty"`
	SideMeters float64 `json:"side_m,omitempty"`
	// MinTxDBm/MaxTxDBm bound the uniform deployment's heterogeneous
	// per-node transmit power.
	MinTxDBm float64 `json:"min_tx_dbm,omitempty"`
	MaxTxDBm float64 `json:"max_tx_dbm,omitempty"`

	// Gateways lists gateway node IDs; empty places the defaults (four
	// quadrant gateways; node 0 for a line).
	Gateways []int `json:"gateways,omitempty"`
	// DemandLo/DemandHi bound the per-node static demand draw (defaults 1
	// and 10); the flow simulator uses them only through routing.
	DemandLo int `json:"demand_lo,omitempty"`
	DemandHi int `json:"demand_hi,omitempty"`
	// BalancedRouting uses load-aware parent tie-breaking when building the
	// routing forest: min-hop paths, evener gateway load, usually a smaller
	// total demand. A line ignores it.
	BalancedRouting bool `json:"balanced_routing,omitempty"`
	// Radio overrides the radio environment (nil = the defaults RadioSpec
	// lists).
	Radio *RadioSpec `json:"radio,omitempty"`
}

// RadioSpec is the radio environment of a deployment. The five physics
// fields form one group: when all five are zero the group takes the paper's
// defaults together (path loss exponent 3, 40 dB reference loss at 1 m,
// -96 dBm noise, 10 dB SINR threshold, no shadowing); otherwise every one is
// used as given. CSThresholdDBm and NumRadios apply on top of whichever
// physics is in effect.
type RadioSpec struct {
	PathLossExponent float64 `json:"path_loss_exponent,omitempty"`
	RefLossDB        float64 `json:"ref_loss_db,omitempty"`
	NoiseDBm         float64 `json:"noise_dbm,omitempty"`
	BetaDB           float64 `json:"beta_db,omitempty"`
	// CSThresholdDBm is the carrier-sense (energy detect) threshold; nil
	// derives it at decode sensitivity, beta * noise (the paper's rCS = rc).
	// A pointer keeps an explicit 0 dBm expressible.
	CSThresholdDBm *float64 `json:"cs_threshold_dbm,omitempty"`
	ShadowSigmaDB  float64  `json:"shadow_sigma_db,omitempty"` // log-normal shadowing std dev; 0 disables
	// NumRadios is the per-node radio interface count (0 = 1). In
	// multi-channel scheduling a node is active on at most NumRadios
	// channels per slot; with one channel the value is irrelevant.
	NumRadios int `json:"num_radios,omitempty"`
}

// physicsSet reports whether any of the five physics fields is non-zero,
// which turns off their defaults.
func (r *RadioSpec) physicsSet() bool {
	return r != nil && (r.PathLossExponent != 0 || r.RefLossDB != 0 ||
		r.NoiseDBm != 0 || r.BetaDB != 0 || r.ShadowSigmaDB != 0)
}

// params returns the propagation environment r describes.
func (r *RadioSpec) params() topo.Params {
	p := topo.DefaultParams()
	if r.physicsSet() {
		p.PathLoss.Exponent = r.PathLossExponent
		p.PathLoss.RefLossDB = r.RefLossDB
		p.NoiseMW = phys.DBm(r.NoiseDBm).MilliWatts()
		p.Beta = phys.DB(r.BetaDB).Linear()
		p.CSThresholdMW = p.NoiseMW * p.Beta
		p.ShadowSigmaDB = r.ShadowSigmaDB
	}
	if r != nil && r.CSThresholdDBm != nil {
		p.CSThresholdMW = phys.DBm(*r.CSThresholdDBm).MilliWatts()
	}
	return p
}

// TrafficSpec describes the offered load of a scenario.
type TrafficSpec struct {
	// Kind selects the arrival process: "cbr", "poisson", "bursty"
	// (on/off Poisson) or "zipf" (Poisson with Zipf-skewed per-node rates).
	Kind string `json:"kind"`
	// Load is the per-node offered load as a multiple of the mesh's static
	// capacity (see Mesh.FlowFrameTime); RatePps is an absolute per-node
	// rate in packets per second. Set exactly one.
	Load    float64 `json:"load,omitempty"`
	RatePps float64 `json:"rate_pps,omitempty"`
	// Bursty shape: PeakFactor x the mean rate during exponential ON periods
	// (defaults: 4x peak, 50 ms on, 150 ms off — same mean rate).
	PeakFactor float64 `json:"peak_factor,omitempty"`
	MeanOnSec  float64 `json:"mean_on_sec,omitempty"`
	MeanOffSec float64 `json:"mean_off_sec,omitempty"`
	// Zipf shape (defaults s=1.5, multipliers capped at 32).
	ZipfS   float64 `json:"zipf_s,omitempty"`
	ZipfMax uint64  `json:"zipf_max,omitempty"`
}

// DynamicsSpec describes topology dynamics. A spec with zero churn and no
// mobility is inert and equivalent to omitting dynamics entirely.
type DynamicsSpec struct {
	// FailRate is expected node failures per node per simulated second.
	FailRate float64 `json:"fail_rate,omitempty"`
	// MeanDowntimeSec is the mean repair time (0 = failures are permanent).
	MeanDowntimeSec float64 `json:"mean_downtime_sec,omitempty"`
	FailGateways    bool    `json:"fail_gateways,omitempty"`
	// Mobility is "", "none", "waypoint" or "drift".
	Mobility        string  `json:"mobility,omitempty"`
	SpeedMps        float64 `json:"speed_mps,omitempty"`
	PauseSec        float64 `json:"pause_sec,omitempty"`
	MoveIntervalSec float64 `json:"move_interval_sec,omitempty"`
}

// InterferenceSpec selects the interference engine the centralized
// schedulers build against. Omitting the block (or the engine name) keeps the
// exact dense engine, so existing scenarios run bit-identically.
type InterferenceSpec struct {
	// Engine is a registry name from Engines(): "dense" (exact n x n gain
	// matrix, the default) or "spatial" (grid-bucket index — exact
	// near-field, conservative far-field bound, O(n) memory).
	Engine string `json:"engine,omitempty"`
	// CutoffM is the spatial engine's exact-evaluation radius in meters
	// (0 derives it from the strongest transmitter: the distance at which
	// its received power falls to a tenth of the noise floor).
	CutoffM float64 `json:"cutoff_m,omitempty"`
	// BucketM is the spatial engine's grid bucket edge in meters (0 =
	// half the cutoff).
	BucketM float64 `json:"bucket_m,omitempty"`
}

// engineName returns the effective engine registry name ("" = dense).
func (i InterferenceSpec) engineName() string {
	if i.Engine == "" {
		return EngineDense
	}
	return i.Engine
}

// ScenarioSpec is a complete, serializable flow-simulation scenario: the JSON
// document screamd accepts on /api/v1/run and flowsim loads with -scenario,
// and the only description of a run Run and RunWith accept. The zero value
// of each run knob selects its default.
type ScenarioSpec struct {
	// Name is a free-form label echoed in daemon session listings.
	Name     string       `json:"name,omitempty"`
	Topology TopologySpec `json:"topology"`
	Traffic  TrafficSpec  `json:"traffic"`
	// Scheduler is a registry name from Schedulers() ("" = "greedy").
	Scheduler string `json:"scheduler,omitempty"`
	// P is PDD's activation probability (required for "pdd").
	P float64 `json:"p,omitempty"`
	// K is the SCREAM length for the distributed schedulers (0 = the mesh's
	// interference diameter).
	K int `json:"k,omitempty"`
	// HorizonSec is the simulated duration in seconds. Required.
	HorizonSec float64 `json:"horizon_sec"`
	// Seed drives all randomness: deployment draw, arrivals, protocol coins.
	Seed int64 `json:"seed,omitempty"`
	// FramesPerEpoch replays each epoch's schedule this many times before
	// re-scheduling, amortizing control cost (0 = 1).
	FramesPerEpoch int `json:"frames_per_epoch,omitempty"`
	// MaxService caps per-link demand per epoch (0 = full backlog).
	MaxService int `json:"max_service,omitempty"`
	// MaxQueue caps each link queue in packets (0 = unbounded).
	MaxQueue int `json:"max_queue,omitempty"`
	// IdleWaitSec is the backlog re-check period when the network is empty
	// (0 = one handshake slot).
	IdleWaitSec float64 `json:"idle_wait_sec,omitempty"`
	// Channels is the orthogonal data channel count (0 or 1 =
	// single-channel). With more, every scheduler packs each slot across the
	// channel set — per-channel SINR feasibility, per-node radio budget from
	// the topology's num_radios — and the distributed schedulers pay their
	// control traffic on channel 0.
	Channels int `json:"channels,omitempty"`
	// Dynamics drives node churn and mobility during the run (nil or inert =
	// a static topology). The run operates on a clone of the deployment, so
	// a Mesh passed in RunOptions is never mutated.
	Dynamics *DynamicsSpec `json:"dynamics,omitempty"`
	// Interference selects the interference engine (nil = the exact dense
	// engine).
	Interference *InterferenceSpec `json:"interference,omitempty"`
}

// scenarioSpecJSON is the method-free shadow of ScenarioSpec used by the
// custom (un)marshalers to avoid recursion.
type scenarioSpecJSON ScenarioSpec

// UnmarshalJSON decodes strictly: unknown fields anywhere in the document
// (including nested specs) are an error.
func (s *ScenarioSpec) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var raw scenarioSpecJSON
	if err := dec.Decode(&raw); err != nil {
		return fmt.Errorf("scream: scenario spec: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("scream: scenario spec: trailing data after JSON document")
	}
	*s = ScenarioSpec(raw)
	return nil
}

// MarshalJSON is the inverse of UnmarshalJSON: Marshal then Unmarshal
// round-trips a spec exactly.
func (s ScenarioSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(scenarioSpecJSON(s))
}

// ParseScenario decodes and validates a JSON scenario document.
func ParseScenario(data []byte) (ScenarioSpec, error) {
	var spec ScenarioSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return ScenarioSpec{}, err
	}
	if err := spec.Validate(); err != nil {
		return ScenarioSpec{}, err
	}
	return spec, nil
}

// LoadScenario reads, decodes and validates a JSON scenario file.
func LoadScenario(path string) (ScenarioSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("scream: scenario: %w", err)
	}
	spec, err := ParseScenario(data)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("%w (%s)", err, path)
	}
	return spec, nil
}

// Clone returns a deep copy: mutating the copy (its gateway list, radio,
// dynamics, interference block) never affects the original. Specs cross the daemon's session
// boundary through this.
func (s ScenarioSpec) Clone() ScenarioSpec {
	c := s
	c.Topology.Gateways = append([]int(nil), s.Topology.Gateways...)
	if s.Topology.Radio != nil {
		r := *s.Topology.Radio
		if s.Topology.Radio.CSThresholdDBm != nil {
			v := *s.Topology.Radio.CSThresholdDBm
			r.CSThresholdDBm = &v
		}
		c.Topology.Radio = &r
	}
	if s.Dynamics != nil {
		d := *s.Dynamics
		c.Dynamics = &d
	}
	if s.Interference != nil {
		i := *s.Interference
		c.Interference = &i
	}
	return c
}

// SchedulerName resolves the spec's scheduler name, applying the registry
// default ("greedy") when unset.
func (s ScenarioSpec) SchedulerName() string {
	if s.Scheduler == "" {
		return "greedy"
	}
	return s.Scheduler
}

// Validate checks the spec for structural errors: unknown kinds, missing
// required knobs, contradictory load settings, and counts or durations out
// of range (each error names the allowed range). Run validates implicitly.
func (s ScenarioSpec) Validate() error {
	if err := s.Topology.validate(); err != nil {
		return err
	}
	switch s.Traffic.Kind {
	case "cbr", "poisson", "bursty", "zipf":
	case "":
		return fmt.Errorf("scream: scenario: traffic.kind is required (cbr, poisson, bursty, zipf)")
	default:
		return fmt.Errorf("scream: scenario: unknown traffic kind %q (valid: cbr, poisson, bursty, zipf)", s.Traffic.Kind)
	}
	if s.Traffic.Load < 0 || s.Traffic.RatePps < 0 {
		return fmt.Errorf("scream: scenario: traffic load and rate_pps must be non-negative")
	}
	if s.Traffic.Load > 0 && s.Traffic.RatePps > 0 {
		return fmt.Errorf("scream: scenario: set traffic.load or traffic.rate_pps, not both")
	}
	if s.Traffic.Load == 0 && s.Traffic.RatePps == 0 {
		return fmt.Errorf("scream: scenario: traffic needs load or rate_pps > 0")
	}
	if zs := s.Traffic.ZipfS; s.Traffic.Kind == "zipf" && zs != 0 && !(zs > 1 && zs <= math.MaxFloat64) {
		return fmt.Errorf("scream: scenario: traffic.zipf_s must be finite and > 1 (0 selects %g), got %g", defaultZipfS, zs)
	}
	name := s.SchedulerName()
	info, err := SchedulerByName(name)
	if err != nil {
		return err
	}
	if name == "pdd" && (s.P <= 0 || s.P > 1) {
		return fmt.Errorf("scream: scenario: pdd needs p in (0, 1], got %g", s.P)
	}
	if !(s.HorizonSec > 0 && s.HorizonSec <= maxSimSec) {
		return fmt.Errorf("scream: scenario: horizon_sec must be in (0, %g], got %g", maxSimSec, s.HorizonSec)
	}
	for _, c := range []struct {
		field string
		v     int
	}{
		{"frames_per_epoch", s.FramesPerEpoch},
		{"max_service", s.MaxService},
		{"max_queue", s.MaxQueue},
		{"channels", s.Channels},
		{"k", s.K},
	} {
		if c.v < 0 {
			return fmt.Errorf("scream: scenario: %s must be >= 0, got %d", c.field, c.v)
		}
	}
	if s.Channels > 1 && !info.MultiChannel {
		var multi []string
		for _, d := range Schedulers() {
			if d.MultiChannel {
				multi = append(multi, d.Name)
			}
		}
		return fmt.Errorf("scream: scenario: scheduler %q is single-channel only; channels > 1 needs one of %s", name, strings.Join(multi, ", "))
	}
	d := s.Dynamics
	if d == nil {
		d = &DynamicsSpec{} // an absent block is the inert one
	}
	switch d.Mobility {
	case "", "none", "waypoint", "drift":
	default:
		return fmt.Errorf("scream: scenario: unknown mobility model %q (valid: none, waypoint, drift)", d.Mobility)
	}
	for _, c := range []struct {
		field  string
		v, max float64
	}{
		{"idle_wait_sec", s.IdleWaitSec, maxSimSec},
		{"traffic.mean_on_sec", s.Traffic.MeanOnSec, maxSimSec},
		{"traffic.mean_off_sec", s.Traffic.MeanOffSec, maxSimSec},
		{"traffic.peak_factor", s.Traffic.PeakFactor, math.MaxFloat64},
		{"dynamics.fail_rate", d.FailRate, math.MaxFloat64},
		{"dynamics.mean_downtime_sec", d.MeanDowntimeSec, maxSimSec},
		{"dynamics.speed_mps", d.SpeedMps, math.MaxFloat64},
		{"dynamics.pause_sec", d.PauseSec, maxSimSec},
		{"dynamics.move_interval_sec", d.MoveIntervalSec, maxSimSec},
	} {
		switch {
		case c.v >= 0 && c.v <= c.max:
		case c.max == math.MaxFloat64:
			return fmt.Errorf("scream: scenario: %s must be finite and >= 0, got %g", c.field, c.v)
		default:
			return fmt.Errorf("scream: scenario: %s must be in [0, %g], got %g", c.field, c.max, c.v)
		}
	}
	if s.Interference != nil {
		i := s.Interference
		if i.Engine != "" {
			if _, err := EngineByName(i.Engine); err != nil {
				return fmt.Errorf("scream: scenario: unknown interference engine %q (valid: dense, spatial)", i.Engine)
			}
		}
		if i.CutoffM < 0 || i.BucketM < 0 {
			return fmt.Errorf("scream: scenario: interference cutoff_m and bucket_m must be non-negative")
		}
		if i.engineName() != EngineSpatial && (i.CutoffM != 0 || i.BucketM != 0) {
			return fmt.Errorf("scream: scenario: cutoff_m and bucket_m apply only to the spatial engine")
		}
		if i.engineName() == EngineSpatial {
			if s.Topology.Radio != nil && s.Topology.Radio.ShadowSigmaDB > 0 {
				return fmt.Errorf("scream: scenario: the spatial engine does not support shadowing; use the dense engine")
			}
			// The distributed protocols simulate real radios over the exact
			// channel.
			if info.Distributed {
				return fmt.Errorf("scream: scenario: scheduler %q requires the dense interference engine", name)
			}
		}
	}
	return nil
}

// validate checks the deployment before anything is built: unknown kinds,
// missing sizes, gateways or demand ranges out of range, and radio values
// with no finite, positive linear equivalent. Each error names the allowed
// range.
func (t TopologySpec) validate() error {
	switch t.Kind {
	case "grid":
		if t.Rows <= 0 || t.Cols <= 0 {
			return fmt.Errorf("scream: scenario: grid topology needs rows and cols > 0")
		}
		if t.StepMeters <= 0 {
			return fmt.Errorf("scream: scenario: grid topology needs step_m > 0")
		}
	case "uniform":
		if t.Nodes <= 0 || t.SideMeters <= 0 {
			return fmt.Errorf("scream: scenario: uniform topology needs nodes and side_m > 0")
		}
	case "line":
		if t.Nodes <= 0 || t.StepMeters <= 0 {
			return fmt.Errorf("scream: scenario: line topology needs nodes and step_m > 0")
		}
	case "":
		return fmt.Errorf("scream: scenario: topology.kind is required (grid, uniform, line)")
	default:
		return fmt.Errorf("scream: scenario: unknown topology kind %q (valid: grid, uniform, line)", t.Kind)
	}
	// Gateways and demands are drawn when the mesh is built, but their
	// ranges follow from the spec alone.
	nodes := t.Nodes
	if t.Kind == "grid" {
		nodes = t.Rows * t.Cols
	}
	if len(t.Gateways) == 0 && t.Kind != "line" && nodes < 4 {
		return fmt.Errorf("scream: scenario: %s topology has %d nodes, fewer than its 4 default gateways; deploy at least 4 nodes or list topology.gateways", t.Kind, nodes)
	}
	for i, g := range t.Gateways {
		if g < 0 || g >= nodes {
			return fmt.Errorf("scream: scenario: topology.gateways[%d] = %d is not a node; want 0..%d", i, g, nodes-1)
		}
	}
	if lo, hi := cmp.Or(t.DemandLo, defaultDemandLo), cmp.Or(t.DemandHi, defaultDemandHi); lo < 1 || lo > hi {
		return fmt.Errorf("scream: scenario: topology demand range needs 1 <= demand_lo <= demand_hi (0 selects %d and %d), got [%d, %d]", defaultDemandLo, defaultDemandHi, lo, hi)
	}
	var r RadioSpec
	if t.Radio != nil {
		r = *t.Radio
	}
	cs := 0.0 // nil derives the threshold from the physics
	if r.CSThresholdDBm != nil {
		cs = *r.CSThresholdDBm
	}
	for _, c := range [...]struct {
		field string
		v     float64
	}{
		{"tx_dbm", t.TxPowerDBm},
		{"min_tx_dbm", t.MinTxDBm},
		{"max_tx_dbm", t.MaxTxDBm},
		{"radio.ref_loss_db", r.RefLossDB},
		{"radio.noise_dbm", r.NoiseDBm},
		{"radio.beta_db", r.BetaDB},
		{"radio.cs_threshold_dbm", cs},
	} {
		if lin := phys.DB(c.v).Linear(); !(lin > 0 && lin <= math.MaxFloat64) {
			return fmt.Errorf("scream: scenario: topology.%s must convert to a finite linear value > 0, got %g", c.field, c.v)
		}
	}
	if sd := r.ShadowSigmaDB; !(sd >= 0 && sd <= math.MaxFloat64) {
		return fmt.Errorf("scream: scenario: topology.radio.shadow_sigma_db must be finite and >= 0, got %g", sd)
	}
	if r.NumRadios < 0 {
		return fmt.Errorf("scream: scenario: topology.radio.num_radios must be >= 0 (0 selects 1), got %d", r.NumRadios)
	}
	if e := r.PathLossExponent; r.physicsSet() && !(e > 0 && e <= math.MaxFloat64) {
		return fmt.Errorf("scream: scenario: topology.radio.path_loss_exponent must be finite and > 0 when any physics field is set, got %g", e)
	}
	return nil
}

// defaultZipfS is the Zipf exponent a zero TrafficSpec.ZipfS selects.
const defaultZipfS = 1.5

// maxSimSec is the longest duration, in seconds, simulated time (int64
// nanoseconds) can hold.
const maxSimSec = float64(math.MaxInt64 / int64(Second))

// Mesh builds the scenario's deployment (topology, routing forest, demands).
// The returned mesh is exclusively the caller's: nothing in the spec aliases
// it.
func (s ScenarioSpec) Mesh() (*Mesh, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, err := NewMesh(s.Topology, s.Seed)
	if err != nil {
		return nil, err
	}
	if s.Interference != nil {
		if err := m.UseEngine(*s.Interference); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// arrivals builds the per-node arrival processes, replicating the flowsim
// semantics: Zipf multipliers are drawn for source nodes only (normalizing
// over gateways would shed their mass and under-offer the promised load).
func (s ScenarioSpec) arrivals(m *Mesh, tm Timing) ([]Arrival, error) {
	rate := s.Traffic.RatePps
	if s.Traffic.Load > 0 {
		frame, err := m.FlowFrameTime(tm)
		if err != nil {
			return nil, err
		}
		rate = s.Traffic.Load / frame.Seconds()
	}
	n := m.NumNodes()
	isGW := make(map[int]bool)
	gateways := m.Gateways()
	for _, g := range gateways {
		isGW[g] = true
	}
	mult := make([]float64, n)
	for i := range mult {
		mult[i] = 1
	}
	if s.Traffic.Kind == "zipf" {
		zs := cmp.Or(s.Traffic.ZipfS, defaultZipfS)
		zmax := s.Traffic.ZipfMax
		if zmax == 0 {
			zmax = 32
		}
		rates, err := HotspotRates(n-len(gateways), zs, 1, zmax, s.Seed)
		if err != nil {
			return nil, err
		}
		next := 0
		for u := 0; u < n; u++ {
			if isGW[u] {
				mult[u] = 0
				continue
			}
			mult[u] = rates[next]
			next++
		}
	}
	peak := s.Traffic.PeakFactor
	if peak == 0 {
		peak = 4
	}
	meanOn, meanOff := s.Traffic.MeanOnSec, s.Traffic.MeanOffSec
	if meanOn == 0 {
		meanOn = 0.05
	}
	if meanOff == 0 {
		meanOff = 0.15
	}
	arrivals := make([]Arrival, n)
	for u := 0; u < n; u++ {
		if isGW[u] {
			continue
		}
		r := rate * mult[u]
		if r <= 0 {
			continue
		}
		var a Arrival
		var err error
		switch s.Traffic.Kind {
		case "cbr":
			a, err = NewCBR(r)
		case "poisson", "zipf":
			a, err = NewPoisson(r)
		case "bursty":
			a, err = NewBursty(peak*r, secsToSim(meanOn), secsToSim(meanOff))
		}
		if err != nil {
			return nil, err
		}
		arrivals[u] = a
	}
	return arrivals, nil
}

// config converts a validated dynamics block to the world configuration. It
// reports false for a nil or inert block (no churn, no mobility), which takes
// the identical static path.
func (d *DynamicsSpec) config(horizon SimTime, seed int64) (dynam.Config, bool) {
	if d == nil {
		return dynam.Config{}, false
	}
	cfg := dynam.Config{
		FailRate:     d.FailRate,
		MeanDowntime: secsToSim(d.MeanDowntimeSec),
		FailGateways: d.FailGateways,
		MoveInterval: secsToSim(d.MoveIntervalSec),
		Horizon:      horizon,
		Seed:         seed,
	}
	switch d.Mobility {
	case "waypoint":
		cfg.Mobility = dynam.RandomWaypoint{SpeedMps: d.SpeedMps, Pause: secsToSim(d.PauseSec)}
	case "drift":
		cfg.Mobility = dynam.Drift{SpeedMps: d.SpeedMps}
	}
	return cfg, cfg.FailRate != 0 || cfg.Mobility != nil
}

// secsToSim converts wall-clock-style seconds to simulated ticks.
func secsToSim(x float64) SimTime { return SimTime(x * float64(Second)) }

// RunOptions carries the non-serializable hooks of RunWith — everything a
// scenario run can take beyond the spec itself.
type RunOptions struct {
	// OnEpoch, when non-nil, is called synchronously after every built
	// epoch's data phase with a progress snapshot — the streaming hook. The
	// callback must treat the update as read-only; it cannot change any
	// result.
	OnEpoch func(EpochUpdate)
	// Metrics, when non-nil, receives live counters from every layer the run
	// touches (flow, scheduler, protocol, slot engine, dynamics), but not the
	// mesh's FlowFrameTime build. When nil, the run falls back to the
	// process-default registry installed by EnableRuntimeMetrics — still
	// nil by default, costing nothing. Metrics are write-only; enabling them
	// never changes a result.
	Metrics *ObsRegistry
	// Trace, when non-nil, receives structured JSONL events — the schema-v2
	// span hierarchy (run ▸ epoch ▸ schedule_build ▸ slot) plus point events
	// (protocol handshakes, churn and repair) — timestamped in simulated
	// ticks.
	Trace *ObsTracer
	// Perf opts into wall-clock sampling of the run's hot paths: each
	// schedule build and each epoch drive is timed into scream_perf_*
	// histograms in the effective registry, and span_end trace lines gain a
	// sampled wall_ns field. Samples are write-only — simulated results stay
	// bit-identical — but the trace bytes stop being deterministic, so
	// golden-trace comparisons must keep this off.
	Perf bool
	// Mesh, when non-nil, skips building spec.Topology and runs on the given
	// mesh instead — the daemon's preloaded-scenario path, where every
	// session runs on one shared deployment. Only the topology comes from
	// the mesh; the interference engine is the spec's. The run never writes
	// to the mesh: a static run only reads it, and a run under dynamics
	// clones its network first, so concurrent runs may share one mesh.
	Mesh *Mesh
}

// Run executes a scenario: build the deployment, offer the traffic, drain it
// with the named scheduler until the horizon. It is the single entrypoint
// behind flowsim and the screamd daemon; ctx cancellation aborts the run.
func Run(ctx context.Context, spec ScenarioSpec) (*FlowResult, error) {
	return RunWith(ctx, spec, RunOptions{})
}

// RunWith is Run with hooks: epoch streaming, observability sinks, and an
// optional pre-built mesh. The context is checked once per driver cycle, and
// cancellation aborts the run with an error wrapping ctx.Err().
func RunWith(ctx context.Context, spec ScenarioSpec, o RunOptions) (*FlowResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := o.Mesh
	if m == nil {
		var err error
		m, err = spec.Mesh()
		if err != nil {
			return nil, err
		}
	}
	tm := DefaultTiming()
	arrivals, err := spec.arrivals(m, tm)
	if err != nil {
		return nil, err
	}
	// The run's registry, handed to every layer: the per-run one, or the
	// process default installed by EnableRuntimeMetrics (nil by default).
	metrics := obs.Resolve(o.Metrics)
	horizon := secsToSim(spec.HorizonSec)
	// The network view the run operates on: the mesh's own for static runs,
	// an exclusively-owned clone when dynamics mutate it. Schedulers must be
	// built over the same view the dynamics world mutates.
	net := m.Network
	var (
		world      *dynam.World
		repairCost SimTime
	)
	if dcfg, ok := spec.Dynamics.config(horizon, spec.Seed); ok {
		net = m.Network.Clone()
		world, err = dynam.NewWorld(net, m.Forest, dcfg)
		if err != nil {
			return nil, fmt.Errorf("scream: %w", err)
		}
		world.SetObs(metrics, o.Trace)
		k := spec.K
		if k == 0 {
			k = net.InterferenceDiameter()
		}
		repairCost = tm.RepairCost(k)
	}
	// The interference engine the spec selects for the centralized
	// schedulers: nil keeps the dense channel (the default, bit-identical to
	// every run before engines existed). The spatial engine is a fresh index
	// over the run's network view, wrapped in the run's memo of exact
	// near-field gains, so every epoch's build reuses the gains earlier
	// builds computed. Under dynamics the world moves nodes through the memo,
	// which keeps the index in lockstep with churn and mobility and drops
	// the moved nodes' gains.
	var engine phys.Engine
	if i := spec.Interference; i != nil && i.engineName() == EngineSpatial {
		idx, err := net.SpatialEngine(i.CutoffM, i.BucketM)
		if err != nil {
			return nil, fmt.Errorf("scream: %w", err)
		}
		memo := spatial.NewMemo(idx)
		if world != nil {
			world.AttachSpatial(memo)
		}
		engine = memo
	}
	def, err := flow.SchedulerDefByName(spec.SchedulerName())
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	scheduler, err := def.New(flow.SchedulerEnv{
		Channel:  net.Channel,
		Engine:   engine,
		Sens:     net.Sens,
		Links:    m.Links,
		K:        spec.K,
		Timing:   tm,
		P:        spec.P,
		Seed:     spec.Seed,
		Channels: max(spec.Channels, 1),
		Radios:   m.radios,
		Metrics:  metrics,
		Trace:    o.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	cfg := flow.Config{
		Forest:         m.Forest,
		Links:          m.Links,
		Scheduler:      scheduler,
		Timing:         tm,
		Arrivals:       arrivals,
		Horizon:        horizon,
		Seed:           spec.Seed,
		MaxQueue:       spec.MaxQueue,
		MaxService:     spec.MaxService,
		FramesPerEpoch: spec.FramesPerEpoch,
		IdleWait:       secsToSim(spec.IdleWaitSec),
		Dynamics:       world,
		RepairCost:     repairCost,
		Metrics:        metrics,
		Trace:          o.Trace,
		OnEpoch:        o.OnEpoch,
	}
	if o.Perf {
		cfg.Perf = obs.NewPerf(metrics, scheduler.Name)
		o.Trace.EnableWallClock(nil) // nil-safe; WallNow
	}
	if ctx != nil && ctx.Done() != nil {
		cfg.Ctx = ctx
	}
	res, err := flow.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	return res, nil
}
