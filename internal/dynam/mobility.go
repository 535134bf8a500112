package dynam

import (
	"math"
	"math/rand"

	"scream/internal/des"
	"scream/internal/geom"
)

// Mobility moves the nodes of a deployment, one Stepper per node.
// Implementations must draw all randomness from the rng Start is given, so
// that timelines are reproducible and worker-count independent.
type Mobility interface {
	// Start begins a node's trajectory at start at time 0. The node must
	// stay inside region.
	Start(start geom.Point, region geom.Rect, rng *rand.Rand) Stepper
}

// Stepper is one node's trajectory, kept as the state its next position
// needs rather than as a list of samples.
type Stepper interface {
	// Step returns the node's position at time t, which must exceed the
	// time of the previous call, and whether the node can still move after
	// t: once moving is false, every later position equals p.
	Step(t des.Time) (p geom.Point, moving bool)
}

// RandomWaypoint is the classical mobility model: pick a uniform waypoint in
// the region, travel to it in a straight line at Speed, pause, repeat.
type RandomWaypoint struct {
	// SpeedMps is the travel speed in meters per second.
	SpeedMps float64
	// Pause is the dwell time at each waypoint.
	Pause des.Time
}

// Start implements Mobility. The stepper keeps the current leg: the last
// waypoint reached, the one it travels to, and when it left and arrives.
func (m RandomWaypoint) Start(start geom.Point, region geom.Rect, rng *rand.Rand) Stepper {
	w := &waypoint{m: m, region: region, rng: rng, pos: start, target: start}
	if m.SpeedMps > 0 {
		w.newLeg(0)
	}
	return w
}

// waypoint is a RandomWaypoint node's leg state.
type waypoint struct {
	m      RandomWaypoint
	region geom.Rect
	rng    *rand.Rand

	pos, target      geom.Point // the leg's start (the last waypoint) and end
	legStart, legEnd des.Time   // the leg leaves pos and reaches target
}

// newLeg draws the next waypoint and leaves pos for it at now.
func (w *waypoint) newLeg(now des.Time) {
	w.target = geom.Point{
		X: w.region.MinX + w.rng.Float64()*w.region.Width(),
		Y: w.region.MinY + w.rng.Float64()*w.region.Height(),
	}
	w.legStart = now
	w.legEnd = now + des.FromSeconds(w.pos.Dist(w.target)/w.m.SpeedMps)
	if w.legEnd <= w.legStart {
		w.legEnd = w.legStart + 1 // zero-length leg: keep time advancing
	}
}

// Step implements Stepper.
func (w *waypoint) Step(t des.Time) (geom.Point, bool) {
	if w.m.SpeedMps <= 0 {
		return w.pos, false
	}
	// Advance legs until t falls inside the current leg or pause.
	for t >= w.legEnd {
		w.pos = w.target
		pausedUntil := w.legEnd + w.m.Pause
		if t < pausedUntil {
			break
		}
		w.newLeg(pausedUntil)
	}
	if t < w.legEnd && t >= w.legStart {
		frac := float64(t-w.legStart) / float64(w.legEnd-w.legStart)
		return w.pos.Add(w.target.Sub(w.pos).Scale(frac)), true
	}
	return w.pos, true // pausing at the waypoint
}

// Drift moves each node with a constant per-node velocity (uniform random
// heading, fixed speed), reflecting off the region boundary — the fixed-
// drift model: slow, persistent topology deformation rather than the
// random-waypoint's mixing walk.
type Drift struct {
	// SpeedMps is the drift speed in meters per second.
	SpeedMps float64
}

// Start implements Mobility. The stepper keeps the node's velocity.
func (m Drift) Start(start geom.Point, region geom.Rect, rng *rand.Rand) Stepper {
	theta := rng.Float64() * 2 * math.Pi
	return &drift{start: start, region: region, vx: m.SpeedMps * math.Cos(theta), vy: m.SpeedMps * math.Sin(theta)}
}

// drift is a Drift node's velocity from its start.
type drift struct {
	start  geom.Point
	region geom.Rect
	vx, vy float64
}

// Step implements Stepper.
func (d *drift) Step(t des.Time) (geom.Point, bool) {
	s := t.Seconds()
	return geom.Point{
		X: reflect(d.start.X+d.vx*s, d.region.MinX, d.region.MaxX),
		Y: reflect(d.start.Y+d.vy*s, d.region.MinY, d.region.MaxY),
	}, d.vx != 0 || d.vy != 0
}

// reflect folds an unbounded coordinate into [lo, hi] as if the trajectory
// bounced elastically off the interval's walls.
func reflect(x, lo, hi float64) float64 {
	w := hi - lo
	if w <= 0 {
		return lo
	}
	// Position within a doubled period: [0, 2w) maps to lo..hi..lo.
	x = math.Mod(x-lo, 2*w)
	if x < 0 {
		x += 2 * w
	}
	if x > w {
		x = 2*w - x
	}
	return lo + x
}
