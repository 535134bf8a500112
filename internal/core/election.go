package core

// LeaderElect runs the paper's bitwise leader election (Section III-B) over
// the given backend: id_bits iterations from the most significant bit; in
// each iteration a network-wide OR (one SCREAM primitive) is taken over the
// current bit of every still-standing participant's ID. A node whose bit is
// 0 while the OR is 1 is voted out; after the last bit only the
// highest-ID participant remains.
//
// ids[i] is node i's unique ID; participating[i] == false makes node i a
// passive relay (it contributes 0 bits and can never win, the paper's
// "LeaderElect(0)" call). The winner's node index is returned, or -1 when
// there are no participants. The paper's pseudocode returns `votedout`; the
// accompanying text makes clear the intended return is "am I the leader",
// i.e. NOT votedout — which is what this implementation reports.
func LeaderElect(b Backend, idBits int, ids []uint64, participating []bool) int {
	n := b.NumNodes()
	votedout := make([]bool, n)
	for i := 0; i < n; i++ {
		if !participating[i] {
			votedout[i] = true
		}
	}
	vars := make([]bool, n)
	for j := idBits - 1; j >= 0; j-- {
		for i := 0; i < n; i++ {
			vars[i] = participating[i] && !votedout[i] && bit(ids[i], j)
		}
		result := b.Scream(vars)
		for i := 0; i < n; i++ {
			// Nodes that screamed stay in; everyone else is voted out
			// if anybody screamed a 1 for this bit position.
			if !vars[i] && result[i] {
				votedout[i] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		vars[i] = participating[i] && !votedout[i]
	}
	// Everyone left standing holds the same low idBits bits.
	return highest(ids, vars)
}

// highest returns the i with standing[i] that is largest by (ids[i], i),
// or -1 when nobody stands. The full ID and then the node index break
// ties, so duplicate IDs among participants still yield one deterministic
// leader and the run goes on.
func highest(ids []uint64, standing []bool) int {
	winner := -1
	for i, s := range standing {
		if s && (winner < 0 || ids[i] >= ids[winner]) {
			winner = i
		}
	}
	return winner
}

// ElectionScreams returns how many SCREAM primitives one LeaderElect costs:
// one per ID bit (the O(K log n) slot complexity of Section III-B).
func ElectionScreams(idBits int) int { return idBits }

// IDBitsFor returns the number of bits needed to represent node IDs 0..n-1,
// with a minimum of 1.
func IDBitsFor(n int) int {
	bits := 1
	for v := uint64(n - 1); v > 1; v >>= 1 {
		bits++
	}
	if n <= 1 {
		return 1
	}
	return bits
}

func bit(x uint64, j int) bool { return (x>>uint(j))&1 == 1 }
