package scream

import (
	"cmp"
	"fmt"

	"scream/internal/core"
	"scream/internal/phys"
	"scream/internal/radio"
	"scream/internal/rng"
	"scream/internal/route"
	"scream/internal/sched"
	"scream/internal/topo"
	"scream/internal/traffic"
)

// Mesh is a deployed wireless mesh backbone: topology, routing forest and
// per-link aggregated demands — everything the schedulers consume.
type Mesh struct {
	Network *topo.Network
	Forest  *route.Forest
	Links   []Link
	Demands []int

	gateways []int
	radios   int
	// interf is the selected interference engine configuration (zero value =
	// the exact dense engine). Engines are built on demand from the network's
	// current state — never cached — so topology dynamics and clones always
	// see fresh geometry.
	interf InterferenceSpec
}

// The per-node static demand range a zero DemandLo or DemandHi selects.
const defaultDemandLo, defaultDemandHi = 1, 10

// NewMesh builds the deployment t describes: the grid, uniform or line
// network, its gateways (four quadrant gateways by default; node 0 for a
// line), the per-node static demands and the routing forest. One stream
// seeded with seed draws the placement (a line draws none), then the
// demands, then the forest. NewMesh validates t first, so every error names
// the allowed range, and it never aliases t's gateway slice.
func NewMesh(t TopologySpec, seed int64) (*Mesh, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	params := t.Radio.params()
	rng := rng.New(seed)
	var (
		net *topo.Network
		err error
	)
	gateways, balanced := t.Gateways, t.BalancedRouting
	switch t.Kind {
	case "grid":
		var power float64
		if t.TxPowerDBm != 0 {
			power = phys.DBm(t.TxPowerDBm).MilliWatts()
		}
		net, err = topo.NewGrid(topo.GridConfig{
			Rows: t.Rows, Cols: t.Cols, Step: t.StepMeters,
			TxPowerMW: power,
			Params:    params,
		}, rng)
	case "uniform":
		net, err = topo.NewUniform(topo.UniformConfig{
			N: t.Nodes, Side: t.SideMeters,
			MinTxDBm: phys.DBm(t.MinTxDBm), MaxTxDBm: phys.DBm(t.MaxTxDBm),
			Params: params,
		}, rng)
	default: // "line", whose power follows from the spacing: it draws nothing
		net, err = topo.NewLine(t.Nodes, t.StepMeters, params, t.RangeSlack)
		if len(gateways) == 0 {
			gateways = []int{0}
		}
		balanced = false
	}
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	if len(gateways) == 0 {
		gateways, err = topo.QuadrantGateways(net)
		if err != nil {
			return nil, fmt.Errorf("scream: %w", err)
		}
	}
	lo, hi := cmp.Or(t.DemandLo, defaultDemandLo), cmp.Or(t.DemandHi, defaultDemandHi)
	nodeDemand, err := traffic.Uniform(net.NumNodes(), lo, hi, rng)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	var f *route.Forest
	if balanced {
		f, err = route.BuildForestBalanced(net.Comm, gateways, nodeDemand, rng)
	} else {
		f, err = route.BuildForest(net.Comm, gateways, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	agg, err := f.AggregateDemand(nodeDemand)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	links := f.Links()
	demands := make([]int, len(links))
	for i, l := range links {
		demands[i] = agg[l.From]
	}
	radios := 1
	if t.Radio != nil {
		radios = max(t.Radio.NumRadios, 1)
	}
	return &Mesh{Network: net, Forest: f, Links: links, Demands: demands,
		gateways: append([]int(nil), gateways...), radios: radios}, nil
}

// Clone returns a deep copy of the mesh: a cloned network (positions, powers,
// liveness), fresh link/demand/gateway slices, and the shared routing forest
// (immutable after construction — repairs build new forests, see
// route.Forest). Clones are how concurrent sessions sandbox a common
// deployment: runs on a clone never observe each other.
func (m *Mesh) Clone() *Mesh {
	return &Mesh{
		Network:  m.Network.Clone(),
		Forest:   m.Forest,
		Links:    append([]Link(nil), m.Links...),
		Demands:  append([]int(nil), m.Demands...),
		gateways: append([]int(nil), m.gateways...),
		radios:   m.radios,
		interf:   m.interf,
	}
}

// UseEngine selects the interference engine the mesh's centralized
// schedulers build against (see Engines for the registry). The zero-value
// spec — or one naming "dense" — keeps the exact dense engine, the default.
// Selecting the spatial engine builds it once to surface configuration
// errors (shadowed deployments, invalid geometry) immediately; afterwards
// every schedule build constructs a fresh index from the network's current
// positions, so dynamics and clones never see stale geometry.
func (m *Mesh) UseEngine(spec InterferenceSpec) error {
	if _, err := EngineByName(spec.engineName()); err != nil {
		return err
	}
	if spec.CutoffM < 0 || spec.BucketM < 0 {
		return fmt.Errorf("scream: interference cutoff_m and bucket_m must be non-negative")
	}
	if spec.engineName() == EngineSpatial {
		if _, err := m.Network.SpatialEngine(spec.CutoffM, spec.BucketM); err != nil {
			return fmt.Errorf("scream: %w", err)
		}
	}
	m.interf = spec
	return nil
}

// EngineName returns the registry name of the mesh's selected interference
// engine ("dense" unless UseEngine chose otherwise).
func (m *Mesh) EngineName() string { return m.interf.engineName() }

// engine builds the mesh's selected interference engine over the network's
// current state: the dense channel itself, or a freshly constructed spatial
// index.
func (m *Mesh) engine() (phys.Engine, error) {
	if m.interf.engineName() != EngineSpatial {
		return m.Network.Channel, nil
	}
	idx, err := m.Network.SpatialEngine(m.interf.CutoffM, m.interf.BucketM)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	return idx, nil
}

// NumNodes returns the number of mesh routers.
func (m *Mesh) NumNodes() int { return m.Network.NumNodes() }

// Gateways returns the gateway node IDs.
func (m *Mesh) Gateways() []int { return append([]int(nil), m.gateways...) }

// TotalDemand returns TD, the serialized schedule length.
func (m *Mesh) TotalDemand() int { return sched.LinearLength(m.Demands) }

// InterferenceDiameter returns ID(G_S) (Definition 2).
func (m *Mesh) InterferenceDiameter() int { return m.Network.InterferenceDiameter() }

// NeighborDensity returns rho(G) (Definition 6).
func (m *Mesh) NeighborDensity() float64 { return m.Network.NeighborDensity() }

// NumRadios returns the per-node radio count (the topology's
// radio.num_radios, normalized to at least 1).
func (m *Mesh) NumRadios() int { return m.radios }

// GreedySchedule runs the centralized GreedyPhysical baseline over the
// mesh's selected interference engine (see UseEngine; dense by default).
func (m *Mesh) GreedySchedule(ord Ordering) (*Schedule, error) {
	eng, err := m.engine()
	if err != nil {
		return nil, err
	}
	return sched.GreedyPhysical(eng, m.Links, m.Demands, ord)
}

// GreedyScheduleChannels runs the multi-channel centralized greedy over the
// given number of orthogonal channels of the mesh's selected interference
// engine, with the mesh's per-node radio count. With channels == 1 it is
// exactly GreedySchedule.
func (m *Mesh) GreedyScheduleChannels(channels int, ord Ordering) (*Schedule, error) {
	eng, err := m.engine()
	if err != nil {
		return nil, err
	}
	return sched.GreedyPhysicalMulti(eng, channels, m.radios, m.Links, m.Demands, ord)
}

// VerifyChannels checks a channel-assigned schedule against the
// multi-channel interference model (per-channel SINR, per-node radio
// budget) over the given number of channels, and against the mesh's
// demands. A channel count below 1 is an error.
func (m *Mesh) VerifyChannels(s *Schedule, channels int) error {
	return s.VerifyMulti(m.Network.Channel, channels, m.radios, m.Links, m.Demands)
}

// Verify checks a schedule against the physical interference model and the
// mesh's demands.
func (m *Mesh) Verify(s *Schedule) error {
	return s.Verify(m.Network.Channel, m.Links, m.Demands)
}

// Improvement returns the schedule's % improvement over the linear schedule.
func (m *Mesh) Improvement(s *Schedule) float64 {
	return sched.ImprovementOverLinear(s.Length(), m.TotalDemand())
}

// GreedyProtocolSchedule schedules this mesh's demands under the *protocol*
// interference model (CSMA/CA-style exclusion regions at carrier-sense
// range) instead of SINR feasibility. Comparing its length against
// GreedySchedule quantifies the capacity the physical model recovers — the
// motivation of the paper's introduction.
func (m *Mesh) GreedyProtocolSchedule(ord Ordering) (*Schedule, error) {
	pm := phys.NewProtocolModel(m.Network.Channel, m.Network.Params.CSThresholdMW)
	return sched.GreedyProtocol(pm, m.Links, m.Demands, ord, m.Network.Channel)
}

// CountInfeasibleSlots returns how many slots of s violate the full
// physical interference model — useful for quantifying how unsafe schedules
// from weaker models (protocol exclusion, data-only SINR) really are.
func (m *Mesh) CountInfeasibleSlots(s *Schedule) int {
	return sched.CountInfeasibleSlots(m.Network.Channel, s)
}

// OptimalLength computes the exact minimum schedule length for this mesh's
// links with unit demands via exponential dynamic programming. Only small
// meshes (at most 20 links) are supported; see sched.OptimalLength.
func (m *Mesh) OptimalLength() (int, error) {
	unit := make([]int, len(m.Links))
	for i := range unit {
		unit[i] = 1
	}
	return sched.OptimalLength(m.Network.Channel, m.Links, unit)
}

// GreedyScheduleFor runs GreedyPhysical on an arbitrary link set over this
// mesh's channel — an escape hatch for workloads that are not gateway
// forests (the paper notes the protocols schedule arbitrary link sets "up
// to straightforward modifications").
func (m *Mesh) GreedyScheduleFor(links []Link, demands []int, ord Ordering) (*Schedule, error) {
	eng, err := m.engine()
	if err != nil {
		return nil, err
	}
	return sched.GreedyPhysical(eng, links, demands, ord)
}

// LocalizedGreedyFor runs the k-hop-localized greedy of the Theorem 1
// demonstration on an arbitrary link set. Its schedules may be infeasible —
// that is the point of the theorem; check with VerifyFor.
func (m *Mesh) LocalizedGreedyFor(links []Link, demands []int, k int, ord Ordering) (*Schedule, error) {
	return sched.LocalizedGreedy(m.Network.Channel, m.Network.Comm, links, demands, k, ord)
}

// VerifyFor checks a schedule against the physical interference model for
// an arbitrary link set and demands.
func (m *Mesh) VerifyFor(links []Link, demands []int, s *Schedule) error {
	return s.Verify(m.Network.Channel, links, demands)
}

// ProtocolOptions tunes a distributed protocol run.
type ProtocolOptions struct {
	// Timing is the slot timing model; zero value uses DefaultTiming.
	Timing Timing
	// K is the SCREAM length in slots; 0 uses the true interference
	// diameter ID(G_S).
	K int
	// Seed drives PDD's coin flips and the packet-level backend's clock
	// offsets.
	Seed int64
	// PacketLevel runs the protocol over the packet-level radio backend
	// (skewed clocks, energy detection) instead of the ideal backend.
	PacketLevel bool
	// ASAPSeal enables the slot-sealing extension (see DESIGN.md).
	ASAPSeal bool
	// Channels is the number of orthogonal data channels the protocol
	// schedules over (0 or 1 = the paper's single-channel protocol). The
	// per-node radio budget comes from the mesh's radio.num_radios.
	// Multi-channel runs require the ideal backend.
	Channels int
}

func (m *Mesh) backend(opts ProtocolOptions) (Backend, error) {
	tm := opts.Timing
	if tm == (Timing{}) {
		tm = DefaultTiming()
	}
	k := opts.K
	if k == 0 {
		k = m.InterferenceDiameter()
		if k <= 0 {
			return nil, fmt.Errorf("scream: sensitivity graph not strongly connected")
		}
	}
	if opts.PacketLevel {
		return radio.New(m.Network.Channel, m.Network.Params.CSThresholdMW, k, tm,
			tm.SkewBound, rng.New(opts.Seed+1))
	}
	return core.NewIdealBackend(m.Network.Channel, m.Network.Sens, k, tm, false)
}

// RunFDD runs the Fully Deterministic Distributed protocol.
func (m *Mesh) RunFDD(opts ProtocolOptions) (*Result, error) {
	return m.run(core.Config{Variant: core.FDD, ASAPSeal: opts.ASAPSeal}, opts)
}

// RunPDD runs the Partially Deterministic Distributed protocol with
// activation probability p.
func (m *Mesh) RunPDD(p float64, opts ProtocolOptions) (*Result, error) {
	return m.run(core.Config{
		Variant:     core.PDD,
		Probability: p,
		RNG:         rng.New(opts.Seed),
		ASAPSeal:    opts.ASAPSeal,
	}, opts)
}

func (m *Mesh) run(cfg core.Config, opts ProtocolOptions) (*Result, error) {
	if opts.Channels > 1 && opts.PacketLevel {
		return nil, fmt.Errorf("scream: multi-channel protocol runs require the ideal backend")
	}
	b, err := m.backend(opts)
	if err != nil {
		return nil, err
	}
	cfg.Links = m.Links
	cfg.Demands = m.Demands
	cfg.Backend = b
	cfg.NumChannels = opts.Channels
	cfg.NumRadios = m.radios
	return core.Run(cfg)
}

// Scream runs one SCREAM primitive over the mesh: vars[i] is node i's input
// bit; the returned slice holds every node's output (the network-wide OR
// when K >= ID). It uses the same backend selection as the protocols.
func (m *Mesh) Scream(vars []bool, opts ProtocolOptions) ([]bool, error) {
	if len(vars) != m.NumNodes() {
		return nil, fmt.Errorf("scream: %d vars for %d nodes", len(vars), m.NumNodes())
	}
	b, err := m.backend(opts)
	if err != nil {
		return nil, err
	}
	// b serves this call alone, so the slice it returns (which it may own)
	// can go to the caller without a copy.
	return b.Scream(vars), nil
}

// LeaderElect runs the paper's bitwise leader election among the nodes with
// participating[i] == true (IDs are the node indices) and returns the
// winner, or -1 when nobody participates.
func (m *Mesh) LeaderElect(participating []bool, opts ProtocolOptions) (int, error) {
	if len(participating) != m.NumNodes() {
		return -1, fmt.Errorf("scream: %d flags for %d nodes", len(participating), m.NumNodes())
	}
	b, err := m.backend(opts)
	if err != nil {
		return -1, err
	}
	ids := make([]uint64, m.NumNodes())
	for i := range ids {
		ids[i] = uint64(i)
	}
	return core.LeaderElect(b, core.IDBitsFor(m.NumNodes()), ids, participating), nil
}
