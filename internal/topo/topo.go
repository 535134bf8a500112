// Package topo builds wireless mesh topologies: node placements (planned
// grids, unplanned uniform deployments, lines), the communication graph, the
// sensitivity graph and its interference diameter (Definitions 1, 2 and 6 of
// the paper).
package topo

import (
	"fmt"
	"math"
	"math/rand"

	"scream/internal/geom"
	"scream/internal/graph"
	"scream/internal/phys"
)

// Node is one wireless router of the mesh backbone.
type Node struct {
	ID        int
	Pos       geom.Point
	TxPowerMW float64
}

// Params collects the radio-environment knobs shared by all topologies.
type Params struct {
	PathLoss      phys.LogDistance
	ShadowSigmaDB float64 // log-normal shadowing std dev in dB; 0 disables
	NoiseMW       float64
	Beta          float64 // linear SINR threshold
	CSThresholdMW float64 // carrier-sense (energy detect) threshold
}

// DefaultParams returns the radio environment used across the reproduction:
// log-distance propagation with exponent 3 (the paper's setting), -96 dBm
// noise floor, 10 dB SINR threshold, and a carrier-sense threshold equal to
// the decode sensitivity (rCS = rc, the worst case analyzed in Section IV-B).
func DefaultParams() Params {
	noise := phys.DBm(-96).MilliWatts()
	beta := phys.DB(10).Linear()
	return Params{
		PathLoss:      phys.DefaultLogDistance(),
		ShadowSigmaDB: 0,
		NoiseMW:       noise,
		Beta:          beta,
		CSThresholdMW: noise * beta,
	}
}

// Network is a fully materialized deployment: nodes, channel, communication
// graph and sensitivity graph.
//
// Networks are immutable except through the topology-dynamics methods in
// dynamics.go (MoveNode, SetNodeDown, SetNodeUp, RefreshGraphs), which
// require exclusive access. Clone a shared network before mutating it.
type Network struct {
	Nodes []Node
	// Channel holds the gains of the current positions and radio states
	// once RefreshGraphs has run: MoveNode and SetNodeUp defer a node's
	// channel row to the next refresh.
	Channel *phys.Channel
	Comm    *graph.Graph // bidirectional links only (paper ignores unidirectional)
	Sens    *graph.Graph // directed sensitivity graph (Definition 1)
	Region  geom.Rect
	Params  Params

	// shadowDB is the static symmetric per-pair log-normal shadowing draw in
	// dB, row-major n×n (nil without shadowing). It persists across node
	// moves: shadowing models obstructions tied to the node pair, the
	// standard static-shadowing assumption. Nothing writes it after Build, so
	// clones share it.
	shadowDB []float64
	// dyn is the per-node state topology dynamics keep; nil until the first
	// SetNodeDown or MoveNode.
	dyn *dynState
}

// Build materializes a network from positions and per-node powers. When
// p.ShadowSigmaDB > 0, rng must be non-nil and supplies the static symmetric
// log-normal shadowing draws.
func Build(positions []geom.Point, txPowerMW []float64, region geom.Rect, p Params, rng *rand.Rand) (*Network, error) {
	n := len(positions)
	if n == 0 {
		return nil, fmt.Errorf("topo: no nodes")
	}
	if len(txPowerMW) != n {
		return nil, fmt.Errorf("topo: %d powers for %d nodes", len(txPowerMW), n)
	}
	if err := p.PathLoss.Validate(); err != nil {
		return nil, err
	}
	if p.ShadowSigmaDB > 0 && rng == nil {
		return nil, fmt.Errorf("topo: shadowing requires an rng")
	}

	var shadow []float64
	if p.ShadowSigmaDB > 0 {
		shadow = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s := rng.NormFloat64() * p.ShadowSigmaDB
				shadow[i*n+j] = s
				shadow[j*n+i] = s
			}
		}
	}
	gain := phys.BuildGainMatrix(positions, p.PathLoss, shadow)
	ch, err := phys.NewChannel(txPowerMW, gain, p.NoiseMW, p.Beta)
	if err != nil {
		return nil, err
	}

	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: i, Pos: positions[i], TxPowerMW: txPowerMW[i]}
	}
	net := &Network{
		Nodes:    nodes,
		Channel:  ch,
		Region:   region,
		Params:   p,
		shadowDB: shadow,
	}
	net.RefreshGraphs()
	return net, nil
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.Nodes) }

// InterferenceDiameter returns ID(G_S) per Definition 2: the maximum hop
// distance in the sensitivity graph, or -1 when G_S is not strongly
// connected (the paper's ID = infinity).
func (n *Network) InterferenceDiameter() int {
	return n.Sens.Diameter()
}

// NeighborDensity returns rho(G) per Definition 6: the average node degree
// of the communication graph.
func (n *Network) NeighborDensity() float64 {
	// Comm stores each undirected edge as two arcs, so the average
	// out-degree is exactly the average number of neighbors.
	return n.Comm.AvgDegree()
}

// DensityNodesPerSqKm returns the spatial node density of the deployment.
func (n *Network) DensityNodesPerSqKm() float64 {
	areaKm2 := n.Region.Area() / 1e6
	if areaKm2 == 0 {
		return 0
	}
	return float64(len(n.Nodes)) / areaKm2
}

// Connected reports whether the communication graph is connected (it is
// symmetric, so strong connectivity and connectivity coincide).
func (n *Network) Connected() bool {
	return n.Comm.StronglyConnected()
}

// GridPositions places rows*cols nodes on a square lattice with the given
// step, anchored at the origin.
func GridPositions(rows, cols int, step float64) []geom.Point {
	pts := make([]geom.Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, geom.Point{X: float64(c) * step, Y: float64(r) * step})
		}
	}
	return pts
}

// UniformPositions places n nodes uniformly at random in region.
func UniformPositions(n int, region geom.Rect, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: region.MinX + float64(rng.Float64()*region.Width()),
			Y: region.MinY + float64(rng.Float64()*region.Height()),
		}
	}
	return pts
}

// LinePositions places n nodes on the x axis with the given spacing.
func LinePositions(n int, step float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * step}
	}
	return pts
}

// HomogeneousPower returns an n-element power vector of the given level.
func HomogeneousPower(n int, mw float64) []float64 {
	pw := make([]float64, n)
	for i := range pw {
		pw[i] = mw
	}
	return pw
}

// HeterogeneousPower draws n power levels log-uniformly between minDBm and
// maxDBm, modelling the unplanned deployments of Section VI-A where node
// powers differ.
func HeterogeneousPower(n int, minDBm, maxDBm phys.DBm, rng *rand.Rand) []float64 {
	pw := make([]float64, n)
	span := float64(maxDBm - minDBm)
	for i := range pw {
		pw[i] = phys.DBm(float64(minDBm) + float64(rng.Float64()*span)).MilliWatts()
	}
	return pw
}

// rangeSlack is the communication range, in grid steps, of a grid or line
// whose power is derived from its step.
const rangeSlack = 1.05

// GridConfig describes a planned square-grid deployment (the paper's
// "planned" scenario with homogeneous transmission power).
type GridConfig struct {
	Rows, Cols int
	Step       float64 // grid step in meters
	TxPowerMW  float64 // homogeneous power; 0 means "derive from Step": range = Step * rangeSlack
	Params     Params
}

// NewGrid builds a planned grid network.
func NewGrid(cfg GridConfig, rng *rand.Rand) (*Network, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("topo: grid needs positive dims, got %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("topo: grid needs positive step, got %v", cfg.Step)
	}
	p := cfg.Params
	power := cfg.TxPowerMW
	if power == 0 {
		power = p.PathLoss.PowerForRange(cfg.Step*rangeSlack, p.NoiseMW, p.Beta)
	}
	pts := GridPositions(cfg.Rows, cfg.Cols, cfg.Step)
	region := geom.Rect{
		MinX: 0, MinY: 0,
		MaxX: float64(cfg.Cols-1) * cfg.Step,
		MaxY: float64(cfg.Rows-1) * cfg.Step,
	}
	n := len(pts)
	return Build(pts, HomogeneousPower(n, power), region, p, rng)
}

// UniformConfig describes an unplanned uniform deployment with (optionally)
// heterogeneous transmit power.
type UniformConfig struct {
	N        int
	Side     float64 // square region side in meters
	MinTxDBm phys.DBm
	MaxTxDBm phys.DBm
	Params   Params
}

// uniformTries is how many placements NewUniform draws at most.
const uniformTries = 20

// NewUniform builds an unplanned uniform network, re-drawing positions until
// the communication graph is connected (or uniformTries draws are spent,
// returning the last draw with an error).
func NewUniform(cfg UniformConfig, rng *rand.Rand) (*Network, error) {
	if cfg.N <= 0 || cfg.Side <= 0 {
		return nil, fmt.Errorf("topo: uniform needs n>0 and side>0")
	}
	if rng == nil {
		return nil, fmt.Errorf("topo: uniform placement requires an rng")
	}
	region := geom.Square(cfg.Side)
	var last *Network
	var err error
	for i := 0; i < uniformTries; i++ {
		pts := UniformPositions(cfg.N, region, rng)
		var pw []float64
		if cfg.MinTxDBm == cfg.MaxTxDBm {
			pw = HomogeneousPower(cfg.N, cfg.MinTxDBm.MilliWatts())
		} else {
			pw = HeterogeneousPower(cfg.N, cfg.MinTxDBm, cfg.MaxTxDBm, rng)
		}
		last, err = Build(pts, pw, region, cfg.Params, rng)
		if err != nil {
			return nil, err
		}
		if last.Connected() {
			return last, nil
		}
	}
	return last, fmt.Errorf("topo: could not draw a connected uniform network in %d tries (n=%d side=%v)", uniformTries, cfg.N, cfg.Side)
}

// NewLine builds a line network with the given spacing and homogeneous
// power derived from the spacing (used by the Theorem 1 construction).
func NewLine(n int, step float64, p Params, slack float64) (*Network, error) {
	if n <= 0 || step <= 0 {
		return nil, fmt.Errorf("topo: line needs n>0 and step>0")
	}
	if slack == 0 {
		slack = rangeSlack
	}
	power := p.PathLoss.PowerForRange(step*slack, p.NoiseMW, p.Beta)
	pts := LinePositions(n, step)
	region := geom.Rect{MinX: 0, MinY: 0, MaxX: float64(n-1) * step, MaxY: 0}
	return Build(pts, HomogeneousPower(n, power), region, p, nil)
}

// SideForDensity returns the square side (meters) that yields the requested
// node density in nodes per square kilometer — how the paper sweeps density
// while keeping 64 nodes fixed (Section VI-A).
func SideForDensity(n int, nodesPerSqKm float64) float64 {
	areaKm2 := float64(n) / nodesPerSqKm
	return math.Sqrt(areaKm2 * 1e6)
}
