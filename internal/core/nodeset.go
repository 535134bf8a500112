package core

import "math/bits"

// nodeSet is a set of node indices packed 64 to a word. The protocol loop
// keeps the nodes of each state, and each channel's slot members, as node
// sets, so a SCREAM over a set is a word test and a step visits only the
// nodes it acts on. Loops visit members in ascending node order (see next):
// PDD's coin flips, Observer events and trace lines all follow that order,
// so it is part of the protocol's observable behaviour.
type nodeSet []uint64

// wordsFor returns how many words a set over n nodes takes.
func wordsFor(n int) int { return (n + 63) >> 6 }

func (s nodeSet) add(u int)      { s[u>>6] |= 1 << (uint(u) & 63) }
func (s nodeSet) remove(u int)   { s[u>>6] &^= 1 << (uint(u) & 63) }
func (s nodeSet) has(u int) bool { return s[u>>6]&(1<<(uint(u)&63)) != 0 }

// any reports whether the set has a member: the OR a SCREAM over it
// computes.
func (s nodeSet) any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// top returns the largest member, or -1 when the set is empty.
func (s nodeSet) top() int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0 {
			return i<<6 | (63 - bits.LeadingZeros64(s[i]))
		}
	}
	return -1
}

// next returns the smallest member at or above u, or -1 when there is none.
// Removing members at or below u does not disturb a walk
// "for u := s.next(0); u >= 0; u = s.next(u + 1)".
func (s nodeSet) next(u int) int {
	i := u >> 6
	if i >= len(s) {
		return -1
	}
	if w := s[i] >> (uint(u) & 63); w != 0 {
		return u + bits.TrailingZeros64(w)
	}
	for i++; i < len(s); i++ {
		if s[i] != 0 {
			return i<<6 | bits.TrailingZeros64(s[i])
		}
	}
	return -1
}

// union sets s to a ∪ b.
func (s nodeSet) union(a, b nodeSet) {
	for i := range s {
		s[i] = a[i] | b[i]
	}
}

// bools writes the set into dst, one flag per node, and returns dst: the
// form Backend.Scream and LeaderElect take.
func (s nodeSet) bools(dst []bool) []bool {
	clear(dst)
	for u := s.next(0); u >= 0; u = s.next(u + 1) {
		dst[u] = true
	}
	return dst
}
