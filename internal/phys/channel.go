package phys

import (
	"fmt"
	"math"

	"scream/internal/geom"
)

// Channel captures everything the interference model needs about a deployed
// network: per-node transmit powers, the pairwise linear gain matrix
// (propagation plus optional static shadowing), background noise, and the
// SINR threshold beta. The paper assumes fixed (but possibly heterogeneous)
// transmit power and no power control (Section II).
//
// The channel keeps one n×n array, the gains, and computes every received
// power at the read as float64(txPowerMW[u]*gain[u*n+v]). The conversion
// rounds the product on its own, so no compiler may fuse it into the sum or
// comparison that follows: a received power is the same float64 on every
// platform, and the same one whichever reader takes it (RxPowerMW,
// NewCandidate, SlotState, FeasibleSet, HandshakeOutcome). The gains, not
// their products with the powers, are the matrix to keep: orderings and
// length classes read Gain, and dividing a received power by the sender's
// power does not give the gain back bit for bit.
//
// Channels are immutable except through MoveNode and RemoveNode, the
// topology-dynamics entry points, so any number of goroutines (e.g. the
// experiment engine's workers sharing one deployment) may read a channel at
// once. A mutation requires exclusive access (no concurrent readers while it
// runs); once it returns, concurrent readers are safe again.
type Channel struct {
	txPowerMW []float64
	gain      []float64 // row-major n×n: gain[u*n+v] is the linear gain from u to v, 0 on the diagonal
	noiseMW   float64
	beta      float64 // linear SINR threshold
}

// NewChannel builds a channel from per-node TX powers (mW), a symmetric
// row-major n×n gain matrix (entry u*n+v is the gain from node u to node v,
// as BuildGainMatrix returns it) and scalar noise (mW) and linear SINR
// threshold beta. The channel adopts gain without copying it and zeroes its
// diagonal: the caller hands the matrix over and must not use it again.
//
// The gains must be symmetric, as path loss over a distance and a per-pair
// shadowing draw are: SlotState reads both directions of a pair from one
// row, so an asymmetric matrix is rejected.
func NewChannel(txPowerMW []float64, gain []float64, noiseMW, beta float64) (*Channel, error) {
	n := len(txPowerMW)
	if len(gain) != n*n {
		return nil, fmt.Errorf("phys: gain matrix has %d entries for %d nodes, want %d", len(gain), n, n*n)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if gain[u*n+v] != gain[v*n+u] {
				return nil, fmt.Errorf("phys: gain matrix is not symmetric: %v from node %d to %d, %v back", gain[u*n+v], u, v, gain[v*n+u])
			}
		}
	}
	if noiseMW <= 0 {
		return nil, fmt.Errorf("phys: noise must be positive, got %v", noiseMW)
	}
	if beta <= 0 {
		return nil, fmt.Errorf("phys: beta must be positive, got %v", beta)
	}
	for i, p := range txPowerMW {
		if p <= 0 {
			return nil, fmt.Errorf("phys: node %d has non-positive TX power %v", i, p)
		}
	}
	for u := 0; u < n; u++ {
		gain[u*n+u] = 0
	}
	return &Channel{txPowerMW: txPowerMW, gain: gain, noiseMW: noiseMW, beta: beta}, nil
}

// NumNodes returns the number of nodes the channel models.
func (c *Channel) NumNodes() int { return len(c.txPowerMW) }

// NoiseMW returns the background noise power in milliwatts.
func (c *Channel) NoiseMW() float64 { return c.noiseMW }

// Beta returns the linear SINR threshold.
func (c *Channel) Beta() float64 { return c.beta }

// Gain returns the linear gain from node u to node v. The gain from a node
// to itself is not meaningful and is 0.
func (c *Channel) Gain(u, v int) float64 {
	return c.gain[u*len(c.txPowerMW)+v]
}

// RxPowerMW returns P_v(u): the power received at v when u transmits.
func (c *Channel) RxPowerMW(u, v int) float64 {
	return float64(c.txPowerMW[u] * c.gain[u*len(c.txPowerMW)+v])
}

// MoveNode replaces node u's symmetric gain row: after the call,
// Gain(u, v) == Gain(v, u) == g[v] for every v != u (g[u] is ignored; the
// self-gain stays 0). Received powers are computed from the gains at every
// read, so the channel then answers every query bit-identically to a
// freshly constructed channel over the updated gain matrix. On an invalid
// argument the error is returned before anything is touched, leaving the
// channel unmodified.
//
// MoveNode requires exclusive access: no reader may run concurrently with
// it. The channel is safe for concurrent reads again once it returns. A
// spatial engine built over the same deployment is a separate structure and
// must be updated through its own MoveNode (dynam.World forwards both).
func (c *Channel) MoveNode(u int, g []float64) error {
	n := len(c.txPowerMW)
	if u < 0 || u >= n {
		return fmt.Errorf("phys: node %d out of range for %d nodes", u, n)
	}
	if len(g) != n {
		return fmt.Errorf("phys: %d gains for %d nodes", len(g), n)
	}
	// Validate the whole row before touching anything: an error must leave
	// the channel exactly as it was, not half-mutated.
	for v, gv := range g {
		if v != u && gv < 0 {
			return fmt.Errorf("phys: negative gain %v between nodes %d and %d", gv, u, v)
		}
	}
	row := c.gain[u*n : (u+1)*n]
	for v := range row {
		if v == u {
			continue
		}
		row[v] = g[v]
		c.gain[v*n+u] = g[v]
	}
	return nil
}

// RemoveNode silences node u: every gain to and from it becomes 0, so it
// neither delivers power anywhere nor receives any — the channel of a
// network where u's radio is off. The row is zeroed in place, and the
// channel does not remember it, so reinstating the node means calling
// MoveNode with a gain row recomputed from its position
// (topo.Network.RefreshGraphs does exactly that for a node SetNodeUp
// restored). Same exclusivity contract as MoveNode.
func (c *Channel) RemoveNode(u int) error {
	n := len(c.txPowerMW)
	if u < 0 || u >= n {
		return fmt.Errorf("phys: node %d out of range for %d nodes", u, n)
	}
	clear(c.gain[u*n : (u+1)*n])
	for v := 0; v < n; v++ {
		c.gain[v*n+u] = 0
	}
	return nil
}

// Clone returns an independent deep copy of the channel. Mutating the clone
// never affects the original, which is how dynamics runs avoid corrupting a
// shared deployment.
func (c *Channel) Clone() *Channel {
	return &Channel{
		txPowerMW: append([]float64(nil), c.txPowerMW...),
		gain:      append([]float64(nil), c.gain...),
		noiseMW:   c.noiseMW,
		beta:      c.beta,
	}
}

// SNR returns the interference-free signal-to-noise ratio of a transmission
// from u to v.
func (c *Channel) SNR(u, v int) float64 {
	return c.RxPowerMW(u, v) / c.noiseMW
}

// LinkUp reports whether a directed transmission u -> v succeeds in the
// absence of any interference, i.e. SNR >= beta.
func (c *Channel) LinkUp(u, v int) bool {
	return c.SNR(u, v) >= c.beta
}

// BuildGainMatrix evaluates a path loss model over node positions, producing
// the symmetric row-major n×n gain matrix whose entry i*n+j is
// pl.Gain(pos[i].Dist(pos[j])), 0 on the diagonal: the matrix NewChannel
// adopts. shadowDB, when non-nil, is a symmetric row-major n×n matrix of
// per-pair shadowing terms in dB that Shadowed applies to each entry
// (log-normal shadowing); pass nil for pure log-distance.
//
// One pass over the upper triangle fills both halves straight from the
// positions, and pl.Gain runs once per distinct distance: a gainCache local
// to the call hands later pairs at the same distance the gain the first one
// computed.
func BuildGainMatrix(pos []geom.Point, pl PathLoss, shadowDB []float64) []float64 {
	n := len(pos)
	gain := make([]float64, n*n)
	cache := newGainCache(pl, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g := cache.gain(pos[i].Dist(pos[j]))
			if shadowDB != nil {
				g = Shadowed(g, shadowDB[i*n+j])
			}
			gain[i*n+j] = g
			gain[j*n+i] = g
		}
	}
	return gain
}

// Shadowed scales gain g by a shadowing loss of db dB: the per-pair factor
// of log-normal shadowing.
func Shadowed(g, db float64) float64 {
	return g * math.Pow(10, -db/10)
}

// gainCache memoizes pl.Gain for one matrix build, keyed by the exact bits
// of the distance. pl.Gain is a pure function of its argument, so a hit
// returns the very bits a fresh evaluation would: the cache changes how
// often the model runs, never what it returns. A grid repeats a handful of
// distances over and over (123 distinct among a 16×16 grid's 32,640 pairs),
// while a uniform deployment repeats none and only ever misses.
//
// The table is open-addressed with linear probing over at least 2n slots,
// where n is the node count. It stops taking new distances once half its
// slots are full, which bounds every probe sequence (an empty slot always
// ends it) and the table's size for deployments whose distances never
// repeat; later distances are evaluated without being stored. A zero gain
// marks an empty slot, so a distance whose gain underflows to 0 is never
// stored and is evaluated each time it comes up.
type gainCache struct {
	pl    PathLoss
	slots []gainSlot
	shift uint // 64 - log2(len(slots)): keeps the hash's top bits
	free  int  // distances the table still takes
}

type gainSlot struct {
	dist uint64 // math.Float64bits of the distance
	gain float64
}

func newGainCache(pl PathLoss, n int) *gainCache {
	size, shift := 16, uint(60)
	for size < 2*n {
		size <<= 1
		shift--
	}
	return &gainCache{pl: pl, slots: make([]gainSlot, size), shift: shift, free: size / 2}
}

// home returns the slot a key's probe sequence starts at. Fibonacci
// hashing: the multiply spreads every key bit into the top bits, which pick
// the slot.
func (c *gainCache) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> c.shift)
}

// gain returns pl.Gain(d).
func (c *gainCache) gain(d float64) float64 {
	key := math.Float64bits(d)
	mask := len(c.slots) - 1
	for i := c.home(key); ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.gain == 0 {
			g := c.pl.Gain(d)
			if c.free > 0 && g != 0 {
				*s = gainSlot{dist: key, gain: g}
				c.free--
			}
			return g
		}
		if s.dist == key {
			return s.gain
		}
	}
}
