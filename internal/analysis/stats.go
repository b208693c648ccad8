package analysis

// Stats counts the non-same-epoch accesses (NSEAs) an epoch-level analysis
// race-checks: which of the paper's Table 12 cases each took, and how many
// locks its thread held (Table 2). Same-epoch accesses are not counted: the
// accesses fed minus NSEAs is their number.
type Stats struct {
	ReadOwned, ReadSharedOwned              uint64
	ReadExclusive, ReadShare, ReadShared    uint64
	WriteOwned, WriteExclusive, WriteShared uint64
	// HeldAtNSEA[k] counts NSEAs executed while holding exactly k locks
	// (bucket 3 means ≥ 3).
	HeldAtNSEA [4]uint64
}

// Held counts one NSEA by a thread holding held locks.
func (s *Stats) Held(held int) { s.HeldAtNSEA[min(held, 3)]++ }

// NSEAReads returns the non-same-epoch read count.
func (s *Stats) NSEAReads() uint64 {
	return s.ReadOwned + s.ReadSharedOwned + s.ReadExclusive + s.ReadShare + s.ReadShared
}

// NSEAWrites returns the non-same-epoch write count.
func (s *Stats) NSEAWrites() uint64 { return s.WriteOwned + s.WriteExclusive + s.WriteShared }

// NSEAs returns the total number of non-same-epoch accesses.
func (s *Stats) NSEAs() uint64 { return s.NSEAReads() + s.NSEAWrites() }

// HeldAtLeast returns the number of NSEAs holding at least k locks (k ≤ 3).
func (s *Stats) HeldAtLeast(k int) uint64 {
	var n uint64
	for _, c := range s.HeldAtNSEA[k:] {
		n += c
	}
	return n
}
