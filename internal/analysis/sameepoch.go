package analysis

import "repro/internal/trace"

// Same is a run's same-epoch bitmap: bit i is set when the run's i-th event
// is an access every analysis would skip as same-epoch (see SameEpoch). A
// nil Same marks nothing.
type Same []uint64

// Has reports whether event i of the run is marked.
func (s Same) Has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]>>(i&63)&1 != 0
}

// Cover returns s extended to hold n bits, the words it adds cleared: a
// marker only sets bits, so a reused bitmap starts from s[:0].Cover(n).
func (s Same) Cover(n int) Same {
	old := len(s)
	words := (n + 63) >> 6
	if words <= old {
		return s
	}
	if words > cap(s) {
		grown := make(Same, words, 2*words)
		copy(grown, s)
		return grown
	}
	s = s[:words]
	clear(s[old:])
	return s
}

// SameEpoch marks, once at the front of a multi-analysis engine, the
// accesses that every analysis in this repository skips as same-epoch, so
// that each computation can skip them without loading its own metadata for
// the variable. Event i, by thread t on variable x, is marked when
//
//   - it is an access (read or write),
//   - x's last access was by t and of the same kind, and
//   - t has done no synchronisation since that access.
//
// Why a marked access is a same-epoch no-op for every level — each skips the
// access alone, and each would have skipped it:
//
//	(i)   P[t](t), the local clock every level's same-epoch test compares
//	      with, moves only at t's own ticks, and every analysis ticks at
//	      every synchronisation operation of t and at nothing else (§5.1).
//	      No join raises it: component t of any clock — another thread's P
//	      or H, a lock, volatile or class clock, a logged or CS-list release
//	      time — is a value P[t](t) (= H[t](t)) once held, or WCP's selfP[t],
//	      which is no larger, so joining it into P[t] leaves P[t](t) as it
//	      was. Between the earlier access and the marked one t did not
//	      synchronise, so t's epoch is the same t@c at both.
//	(ii)  Every level's read or write path leaves t's current epoch where
//	      its own same-epoch test for the same kind looks. A write stores
//	      t@c as the last write (FT2, FTO and SmartTrack's W, Unopt's
//	      Wx(t)); a read stores it as the read epoch or in the read vector
//	      clock, in whichever of the two the next read's test reads (FT2,
//	      FTO and SmartTrack's R or Rvc(t), Unopt's Rx(t)). A same-epoch
//	      access changes nothing, so the induction carries over runs of
//	      marked accesses.
//	(iii) A variable's last-access metadata changes only at accesses to that
//	      variable, and the stamp below changes at every access to it, so
//	      no other thread's access came between the two. Synchronisation of
//	      other threads cannot touch x's metadata either.
//
// So each level's test — FT2's and FTO's [Read/Write Same Epoch] and
// [Read Shared Same Epoch], SmartTrack's same-epoch cases, Unopt's §5.1
// check (unopt.View.Stale) — would return "same epoch" for the marked
// access. What each still does on a mark is what its own same-epoch branch
// does: open the event (the trace index, and the w/G graph's per-event
// bookkeeping), and count the case. The per-level differential tests in
// ft, fto, unopt and core run each cell's own test on every marked event.
//
// State: one 8-byte stamp per variable and one counter per thread. A stamp
// packs the last access to x as tid<<48 | write<<47 | (syncs of tid + 1):
// 16 bits of thread id (trace.Tid is 16 bits wide), the kind, and 47 bits
// of synchronisation count. The +1 keeps every real stamp nonzero, so a
// zero (never accessed) stamp matches no access. 2^47 synchronisations of
// one thread is ≈ 1.4·10^14 events, over two weeks of one thread doing
// nothing but synchronise at 10^8 events/s, so the count does not wrap in
// any stream an engine sees. Stamps rely on
// thread ids never being reused within a stream; thread-slot reclamation
// (ROADMAP item 7(c)) must revisit them, since a reissued id would inherit
// its predecessor's stamps.
type SameEpoch struct {
	stamps []uint64 // per variable: the last access's stamp, 0 for none
	syncs  []uint64 // per thread: synchronisation operations so far
}

// Stamp layout: see SameEpoch.
const (
	stampSyncBits = 47
	stampTidShift = stampSyncBits + 1
)

// Mark sets bit off+i of bits for every marked evs[i]; bits must cover
// off+len(evs) bits, and Mark only sets bits. The runs must be the whole
// stream in order: the marker's state advances with every event it sees.
func (s *SameEpoch) Mark(evs []trace.Event, bits Same, off int) {
	for i := range evs {
		e := &evs[i]
		t := int(e.T)
		if t >= len(s.syncs) {
			EnsureLen(&s.syncs, t+1)
		}
		if !e.Op.IsAccess() {
			s.syncs[t]++
			continue
		}
		x := int(e.Targ)
		if x >= len(s.stamps) {
			EnsureLen(&s.stamps, x+1)
		}
		// OpRead is 0 and OpWrite 1: the op is the kind bit.
		st := uint64(t)<<stampTidShift | uint64(e.Op)<<stampSyncBits | (s.syncs[t] + 1)
		if s.stamps[x] == st {
			j := off + i
			bits[j>>6] |= 1 << (j & 63)
		} else {
			s.stamps[x] = st
		}
	}
}
