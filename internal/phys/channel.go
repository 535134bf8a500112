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
// NewChannel fills the pairwise RX-power matrix before it returns, and
// Clone copies it. Channels are immutable except through MoveNode and
// RemoveNode, the topology-dynamics entry points, so any number of
// goroutines (e.g. the experiment engine's workers sharing one deployment)
// may read a channel at once. A mutation requires exclusive access (no
// concurrent readers while it runs); once it returns, concurrent readers
// are safe again.
type Channel struct {
	txPowerMW []float64
	gain      [][]float64 // gain[i][j]: linear gain from node i to node j
	noiseMW   float64
	beta      float64 // linear SINR threshold

	rx []float64 // row-major n*n matrix of P_v(u) = txPowerMW[u]*Gain(u,v)
}

// NewChannel builds a channel from per-node TX powers (mW), a gain matrix
// and scalar noise (mW) and linear SINR threshold beta.
func NewChannel(txPowerMW []float64, gain [][]float64, noiseMW, beta float64) (*Channel, error) {
	n := len(txPowerMW)
	if len(gain) != n {
		return nil, fmt.Errorf("phys: gain matrix has %d rows for %d nodes", len(gain), n)
	}
	for i, row := range gain {
		if len(row) != n {
			return nil, fmt.Errorf("phys: gain row %d has %d entries for %d nodes", i, len(row), n)
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
	c := &Channel{txPowerMW: txPowerMW, gain: gain, noiseMW: noiseMW, beta: beta, rx: make([]float64, n*n)}
	for u := 0; u < n; u++ {
		row := c.rx[u*n : (u+1)*n]
		p := txPowerMW[u]
		for v := range row {
			row[v] = p * c.Gain(u, v)
		}
	}
	return c, nil
}

// NumNodes returns the number of nodes the channel models.
func (c *Channel) NumNodes() int { return len(c.txPowerMW) }

// NoiseMW returns the background noise power in milliwatts.
func (c *Channel) NoiseMW() float64 { return c.noiseMW }

// Beta returns the linear SINR threshold.
func (c *Channel) Beta() float64 { return c.beta }

// Gain returns the linear gain from node u to node v. The gain from a node
// to itself is not meaningful and returns 0.
func (c *Channel) Gain(u, v int) float64 {
	if u == v {
		return 0
	}
	return c.gain[u][v]
}

// RxPowerMW returns P_v(u): the power received at v when u transmits.
func (c *Channel) RxPowerMW(u, v int) float64 {
	return c.rx[u*len(c.txPowerMW)+v]
}

// RxRow returns the powers every node receives when u transmits: entry v is
// RxPowerMW(u, v). The slice is owned by the channel and must not be
// modified; a MoveNode or RemoveNode rewrites it in place.
func (c *Channel) RxRow(u int) []float64 {
	n := len(c.txPowerMW)
	return c.rx[u*n : (u+1)*n : (u+1)*n]
}

// MoveNode replaces node u's symmetric gain row: after the call,
// Gain(u, v) == Gain(v, u) == g[v] for every v != u (g[u] is ignored; the
// self-gain stays 0). Only row u and column u of the RX-power matrix are
// recomputed, with the single multiplication NewChannel fills every entry
// with, so the resulting matrix is bit-identical to a freshly constructed
// channel over the updated gain matrix. On an invalid argument the error is
// returned before anything is touched, leaving the channel unmodified.
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
	for v := 0; v < n; v++ {
		if v == u {
			continue
		}
		c.gain[u][v] = g[v]
		c.gain[v][u] = g[v]
	}
	c.gain[u][u] = 0
	c.patchRx(u)
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
	for v := 0; v < n; v++ {
		c.gain[u][v] = 0
		c.gain[v][u] = 0
	}
	c.patchRx(u)
	return nil
}

// patchRx recomputes row u and column u of the RX-power matrix from the
// current gains: entry (u, v) is txPowerMW[u]*Gain(u, v), the one
// multiplication every entry is computed with.
func (c *Channel) patchRx(u int) {
	n := len(c.txPowerMW)
	row := c.rx[u*n : (u+1)*n]
	p := c.txPowerMW[u]
	for v := 0; v < n; v++ {
		row[v] = p * c.Gain(u, v)
		c.rx[v*n+u] = c.txPowerMW[v] * c.Gain(v, u)
	}
}

// Clone returns an independent deep copy of the channel, RX-power matrix
// included. Mutating the clone never affects the original, which is how
// dynamics runs avoid corrupting a shared deployment.
func (c *Channel) Clone() *Channel {
	gain := squareMatrix(len(c.gain))
	for i, row := range c.gain {
		copy(gain[i], row)
	}
	return &Channel{
		txPowerMW: append([]float64(nil), c.txPowerMW...),
		gain:      gain,
		noiseMW:   c.noiseMW,
		beta:      c.beta,
		rx:        append([]float64(nil), c.rx...),
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
// the symmetric gain matrix gain[i][j] = pl.Gain(pos[i].Dist(pos[j])), 0 on
// the diagonal. shadowDB, when non-nil, supplies a symmetric per-pair
// shadowing term in dB that Shadowed applies to each entry (log-normal
// shadowing); pass nil for pure log-distance.
//
// One pass over the upper triangle fills both halves straight from the
// positions, and pl.Gain runs once per distinct distance: a gainCache local
// to the call hands later pairs at the same distance the gain the first one
// computed.
func BuildGainMatrix(pos []geom.Point, pl PathLoss, shadowDB [][]float64) [][]float64 {
	n := len(pos)
	gain := squareMatrix(n)
	cache := newGainCache(pl, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g := cache.gain(pos[i].Dist(pos[j]))
			if shadowDB != nil {
				g = Shadowed(g, shadowDB[i][j])
			}
			gain[i][j] = g
			gain[j][i] = g
		}
	}
	return gain
}

// Shadowed scales gain g by a shadowing loss of db dB: the per-pair factor
// of log-normal shadowing.
func Shadowed(g, db float64) float64 {
	return g * math.Pow(10, -db/10)
}

// squareMatrix returns an n×n zero matrix whose rows share one backing
// array.
func squareMatrix(n int) [][]float64 {
	flat := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return m
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
