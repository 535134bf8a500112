package spatial

import (
	"math"

	"scream/internal/geom"
	"scream/internal/phys"
)

// Memo is one run's cache of exact near-field gains over an Index. The
// Index computes every near-field interference term from scratch — a hypot
// and a log-distance gain — although a run's schedule builds ask for the
// same few thousand node pairs over and over on a deployment that rarely
// changes. A Memo computes each unordered pair's nearGain once and stores
// it; InterfGain then runs the index's farCap on bucket cells the memo keeps
// and takes the near-field gain from the cache, and Gain reads the cache
// for pairs within the cutoff. Both rules are the Index's own, so every
// answer is bit-identical to the Index's and, like it, the same for both
// orders of a pair.
//
// The Memo owns the gains, not the Index: the Index keeps no lazy state, so
// its concurrent-reader contract and its MemoryBytes are unchanged, while a
// Memo fills as it is read and is not safe for concurrent use. A run wraps
// its Index once and hands the Memo to every scheduler as its engine and to
// the dynamics world as the engine to move: MoveNode invalidates the moved
// node's pairs.
type Memo struct {
	// The index answers for the memo wherever no gain is cached: NumNodes,
	// NoiseMW, Beta, TxPowerMW, RemoveNode and RestoreNode (a silenced node
	// answers 0 before the cache is consulted, so neither changes a cached
	// gain); MemoryBytes, promoted with them, counts the index alone. It is
	// embedded under an unexported name, so no caller can reach it and move a
	// node past the memo's invalidation.
	*index

	// cell[u] is node u's bucket coordinates, kept with bucketOf: the
	// far-field test reads them without dividing by the grid width.
	cell []cell

	// Invalidation by stamps: clock counts moves, moved[u] is the clock
	// value of u's last move, and an entry computed at an earlier clock
	// than either endpoint's last move is stale.
	clock uint32
	moved []uint32

	table []memoEntry // open addressing, linear probing; len is a power of two
	shift uint        // 64 - log2(len(table))
	used  int         // occupied slots
}

// index is Index under an unexported name, for embedding in Memo.
type index = Index

// memoEntry is one unordered pair's nearGain.
type memoEntry struct {
	key   uint64  // lo<<32 | hi for the pair lo < hi; 0 (never a pair) marks a free slot
	gain  float64 // nearGain(lo, hi): the exact gain, or beyondCutoff
	stamp uint32  // clock when gain was computed
}

var _ phys.Engine = (*Memo)(nil)

// NewMemo returns an empty memo over x. The memo takes over x's mutations:
// from here on, move nodes through the memo, never through x directly.
func NewMemo(x *Index) *Memo {
	n := len(x.pos)
	m := &Memo{index: x, cell: make([]cell, n), moved: make([]uint32, n)}
	for u := range m.cell {
		m.cell[u] = x.cellOf(u)
	}
	// Sixty-four slots per node, up to 2^16 slots up front: a run of
	// greedy-spatial256 reads about 11,500 distinct near-bucket pairs (45 per
	// node), which then fill the table to 70% without a rehash.
	m.resize(min(64*n, 1<<16))
	return m
}

// Gain implements phys.Engine: Index.Gain, from the cache.
func (m *Memo) Gain(u, v int) float64 {
	if u == v || m.removed[u] || m.removed[v] {
		return 0
	}
	if g := m.gain(u, v); g != beyondCutoff {
		return g
	}
	return m.index.Gain(u, v)
}

// InterfGain implements phys.Engine: Index.InterfGain through the index's
// own far-field and near-field rules, with the bucket cells read from the
// memo and the near-field gain from the cache. Far-field pairs are never
// cached.
func (m *Memo) InterfGain(u, v int) float64 {
	if u == v || m.removed[u] || m.removed[v] {
		return 0
	}
	if ub := m.farCap(m.cell[u], m.cell[v]); ub != nearSentinel {
		return ub
	}
	if g := m.gain(u, v); g != beyondCutoff {
		return g
	}
	return m.gainAtCutoff
}

// MoveNode moves node u in the Index and invalidates every cached gain of
// a pair that holds u. Requires exclusive access, like Index.MoveNode.
func (m *Memo) MoveNode(u int, p geom.Point) error {
	if err := m.index.MoveNode(u, p); err != nil {
		return err
	}
	if m.clock == math.MaxUint32 {
		// Stamps are about to wrap: start over with an empty cache.
		clear(m.moved)
		clear(m.table)
		m.clock, m.used = 0, 0
	}
	m.clock++
	m.moved[u] = m.clock
	m.cell[u] = m.cellOf(u)
	return nil
}

// memoHash is the 64-bit Fibonacci hashing multiplier, 2^64 / phi.
const memoHash = 0x9E3779B97F4A7C15

// gain returns the exact gain between u != v, or beyondCutoff, computing
// and caching it on a miss or a stale entry.
func (m *Memo) gain(u, v int) float64 {
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(lo)<<32 | uint64(hi)
	mask := len(m.table) - 1
	for i := int(key * memoHash >> m.shift); ; i = (i + 1) & mask {
		e := &m.table[i]
		if e.key == key {
			if m.stale(e) {
				m.fill(e, lo, hi)
			}
			return e.gain
		}
		if e.key == 0 {
			if 4*(m.used+1) > 3*len(m.table) {
				m.rehash()
				return m.gain(u, v)
			}
			m.used++
			e.key = key
			m.fill(e, lo, hi)
			return e.gain
		}
	}
}

// fill computes the pair's gain with the Index's near-field rule.
func (m *Memo) fill(e *memoEntry, lo, hi int) {
	e.gain, e.stamp = m.nearGain(lo, hi), m.clock
}

// stale reports whether e was computed before either endpoint's last move.
func (m *Memo) stale(e *memoEntry) bool {
	return e.stamp < m.moved[e.key>>32] || e.stamp < m.moved[uint32(e.key)]
}

// rehash rebuilds a full table without its stale entries, doubling it only
// when the live ones would still take more than half the load limit. A run
// whose nodes keep moving thus holds the pairs it reads now, not every pair
// it ever read, and each rehash leaves room for as many inserts as it cost.
func (m *Memo) rehash() {
	live := 0
	for i := range m.table {
		if e := &m.table[i]; e.key != 0 && !m.stale(e) {
			live++
		}
	}
	size := len(m.table)
	if 8*(live+1) > 3*size {
		size *= 2
	}
	m.resize(size)
}

// resize rebuilds the cache as a table of at least size slots (a power of
// two), dropping stale entries.
func (m *Memo) resize(size int) {
	bits := 6
	for 1<<bits < size {
		bits++
	}
	old := m.table
	m.table = make([]memoEntry, 1<<bits)
	m.shift = uint(64 - bits)
	m.used = 0
	mask := len(m.table) - 1
	for i := range old {
		e := &old[i]
		if e.key == 0 || m.stale(e) {
			continue
		}
		j := int(e.key * memoHash >> m.shift)
		for m.table[j].key != 0 {
			j = (j + 1) & mask
		}
		m.table[j] = *e
		m.used++
	}
}
