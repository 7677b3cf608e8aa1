package protocol

import "math/bits"

// procSetWords is the fixed word count of a procSet. It bounds the
// processor count the protocol's directory bit vectors and waiter sets can
// represent; raising it is the only change needed to scale further.
const procSetWords = 4

// MaxProcs is the largest processor count a configuration may request: the
// directory sharer vectors, waiter sets and downgrade bookkeeping are fixed
// procSetWords*64-bit sets, sized for the 64-256 processor hierarchical
// topologies of the scale experiments.
const MaxProcs = procSetWords * 64

// procSet is a fixed-size processor bitset. It replaces the historical
// uint32 sharer masks (which capped the simulator at 32 processors) and the
// map[int]bool waiter sets (whose wakeAll scan was O(NumProcs) per protocol
// completion). The zero value is the empty set; all value methods are
// allocation-free.
type procSet [procSetWords]uint64

// bit returns the singleton set {p}.
func bit(p int) procSet {
	var s procSet
	s[uint(p)>>6] = 1 << (uint(p) & 63)
	return s
}

// add inserts p into the set.
func (s *procSet) add(p int) { s[uint(p)>>6] |= 1 << (uint(p) & 63) }

// has reports whether p is in the set.
func (s procSet) has(p int) bool { return s[uint(p)>>6]&(1<<(uint(p)&63)) != 0 }

// or returns the union of s and t.
func (s procSet) or(t procSet) procSet {
	for i := range s {
		s[i] |= t[i]
	}
	return s
}

// and returns the intersection of s and t.
func (s procSet) and(t procSet) procSet {
	for i := range s {
		s[i] &= t[i]
	}
	return s
}

// andNot returns s with t's members removed.
func (s procSet) andNot(t procSet) procSet {
	for i := range s {
		s[i] &^= t[i]
	}
	return s
}

// empty reports whether the set has no members.
func (s procSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// count returns the number of members.
func (s procSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls f for every member in ascending processor order — the same
// order the old map-based wakeAll scan produced, so the simulation schedule
// (and therefore every trace and statistic) is unchanged by the
// representation switch.
func (s procSet) forEach(f func(p int)) {
	for i, w := range s {
		base := i << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
