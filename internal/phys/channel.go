package phys

import (
	"fmt"
	"math"
	"sync"
)

// Channel captures everything the interference model needs about a deployed
// network: per-node transmit powers, the pairwise linear gain matrix
// (propagation plus optional static shadowing), background noise, and the
// SINR threshold beta. The paper assumes fixed (but possibly heterogeneous)
// transmit power and no power control (Section II).
//
// A Channel must not be copied after first use: it lazily caches the
// pairwise RX-power matrix behind a sync.Once so that concurrent readers
// (e.g. the experiment engine's workers sharing one deployment) are safe.
//
// Channels are immutable except through MoveNode and RemoveNode, the
// topology-dynamics entry points. Those mutations require exclusive access
// (no concurrent readers while a mutation runs); once a mutation returns,
// any number of concurrent readers are safe again.
type Channel struct {
	txPowerMW []float64
	gain      [][]float64 // gain[i][j]: linear gain from node i to node j
	noiseMW   float64
	beta      float64 // linear SINR threshold

	rxOnce sync.Once
	rxFlat []float64 // row-major n*n cache of P_v(u) = txPowerMW[u]*Gain(u,v)
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
	return &Channel{txPowerMW: txPowerMW, gain: gain, noiseMW: noiseMW, beta: beta}, nil
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

// rxMatrix returns the row-major n*n matrix of received powers, building it
// on first use. The entries are exactly txPowerMW[u]*Gain(u,v) — the same
// single multiplication RxPowerMW used to perform per call — so cached and
// uncached reads are bit-identical. Safe for concurrent use.
func (c *Channel) rxMatrix() []float64 {
	c.rxOnce.Do(func() {
		n := len(c.txPowerMW)
		rx := make([]float64, n*n)
		for u := 0; u < n; u++ {
			row := rx[u*n : (u+1)*n]
			p := c.txPowerMW[u]
			for v := 0; v < n; v++ {
				row[v] = p * c.Gain(u, v)
			}
		}
		c.rxFlat = rx
	})
	return c.rxFlat
}

// RxPowerMW returns P_v(u): the power received at v when u transmits.
func (c *Channel) RxPowerMW(u, v int) float64 {
	return c.rxMatrix()[u*len(c.txPowerMW)+v]
}

// MoveNode replaces node u's symmetric gain row: after the call,
// Gain(u, v) == Gain(v, u) == g[v] for every v != u (g[u] is ignored; the
// self-gain stays 0). If the RX-power cache has been built, only row u and
// column u of it are recomputed — with the same single multiplication
// rxMatrix performs on a cold build, so the resulting matrix is
// bit-identical to a freshly constructed channel over the updated gain
// matrix; on an unbuilt cache there is nothing to patch and the lazy build
// sees the new gains. On an invalid argument the error is returned before
// anything is touched, leaving the channel unmodified.
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
	if c.rxFlat == nil {
		return nil // matrix not built yet; the lazy build will see the new gains
	}
	row := c.rxFlat[u*n : (u+1)*n]
	p := c.txPowerMW[u]
	for v := 0; v < n; v++ {
		row[v] = p * c.Gain(u, v)
		c.rxFlat[v*n+u] = c.txPowerMW[v] * c.Gain(v, u)
	}
	return nil
}

// RemoveNode silences node u: every gain to and from it becomes 0, so it
// neither delivers power anywhere nor receives any — the channel of a
// network where u's radio is off. The channel does not remember the
// silenced row, so reinstating the node means calling MoveNode with a gain
// row recomputed from its position (topo.Network.SetNodeUp does exactly
// that). Same exclusivity contract as MoveNode.
func (c *Channel) RemoveNode(u int) error {
	return c.MoveNode(u, make([]float64, len(c.txPowerMW)))
}

// Clone returns an independent deep copy of the channel (cold RX cache).
// Mutating the clone never affects the original, which is how dynamics runs
// avoid corrupting a shared deployment.
func (c *Channel) Clone() *Channel {
	gain := make([][]float64, len(c.gain))
	for i, row := range c.gain {
		gain[i] = append([]float64(nil), row...)
	}
	return &Channel{
		txPowerMW: append([]float64(nil), c.txPowerMW...),
		gain:      gain,
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

// AggregatePowerMW returns the total power received at node rx when every
// node in senders transmits simultaneously. rx itself is skipped if present
// in senders (a node does not hear its own signal as channel activity for
// carrier-sensing purposes — it knows it is transmitting).
func (c *Channel) AggregatePowerMW(rx int, senders []int) float64 {
	sum := 0.0
	for _, s := range senders {
		if s == rx {
			continue
		}
		sum += c.RxPowerMW(s, rx)
	}
	return sum
}

// BuildGainMatrix evaluates a path loss model over node positions given as
// pairwise distances, producing the symmetric gain matrix. shadowDB, when
// non-nil, supplies a symmetric per-pair shadowing term in dB that is added
// to the path loss (log-normal shadowing); pass nil for pure log-distance.
func BuildGainMatrix(dist [][]float64, pl PathLoss, shadowDB [][]float64) [][]float64 {
	n := len(dist)
	gain := make([][]float64, n)
	for i := range gain {
		gain[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g := pl.Gain(dist[i][j])
			if shadowDB != nil {
				g *= math.Pow(10, -shadowDB[i][j]/10)
			}
			gain[i][j] = g
			gain[j][i] = g
		}
	}
	return gain
}
