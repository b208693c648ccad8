package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over backend names. Each backend owns
// vnodes points placed by FNV-64a of "name#i"; a key routes to the first
// point clockwise of its own hash. The placement is a pure function of the
// backend names, so every router instance — and every
// restart — computes the same assignment: the ring is the fleet's only
// routing "state", and it is stateless.
//
// Virtual nodes smooth the load split (with v points per backend the
// per-backend share concentrates around 1/n) and bound disruption: removing
// a backend reassigns only the keys in its own arcs, never shuffles keys
// between surviving backends.
type ring struct {
	names  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	idx  int // index into names
}

// vnodes is the virtual-node count per backend. It is fixed, not a knob:
// two routers with different counts would route the same id differently.
const vnodes = 64

func newRing(names []string) *ring {
	r := &ring{names: names, points: make([]ringPoint, 0, len(names)*vnodes)}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(name + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return r.names[a.idx] < r.names[b.idx] // deterministic tie-break
	})
	return r
}

func ringHash(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	// FNV-1a's final multiply barely reaches the top bits for short keys,
	// so points for "name#0".."name#63" cluster and arcs go lopsided.
	// A splitmix64 finalizer avalanches every bit; still deterministic.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// sequence returns the backends for key in preference order: the key's
// owner first, then each distinct backend encountered walking clockwise —
// the deterministic failover order when owners are down or full.
func (r *ring) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.names))
	seen := make([]bool, len(r.names))
	for i := 0; i < len(r.points) && len(out) < len(r.names); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, r.names[p.idx])
		}
	}
	return out
}
