// Package replica is AIIO's scale-out serving layer: shared-nothing
// horizontal replication of the diagnosis service. The paper's web service
// (Section 3.4 / Fig. 17) is meant to sit behind an entire production
// fleet — the ROADMAP's "heavy traffic from millions of users" — and after
// the inference hot paths were flattened, the throughput ceiling became
// one process. This package removes it with two cooperating pieces:
//
//   - a consistent-hash ring (ring.go) that gives every job key a stable
//     owner replica, so the per-replica LRU diagnosis cache keeps hitting
//     as the fleet grows or shrinks;
//   - a thin routing front (router.go) that health-gates members on their
//     own /readyz, sheds to the ring successor when an owner answers 429
//     or drops mid-request, and replays the buffered body so a killed
//     replica costs a failover, not a lost request.
//
// The package imports only the standard library, so the router binary
// links no model code. Generation replication between replicas is the
// serving side's job: webservice.Syncer pulls and verifies peers'
// generations over the /api/v1/generations endpoints the same package
// serves.
package replica

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is how many ring points each member gets. 128 keeps
// the keyspace share per member within a few percent of fair for small
// fleets while the ring stays a few KB.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over a member list. Rebuild it
// (NewRing) when membership changes; lookups are lock-free.
//
// Each member contributes vnodes points at fnv64a(member + "#" + i); a key
// is owned by the first point clockwise from its hash. Removing a member
// moves only that member's buckets (to their ring successors) — every
// other key keeps its owner, which is exactly what keeps the per-replica
// diagnosis caches warm through membership churn.
type Ring struct {
	points  []ringPoint
	members []string
}

type ringPoint struct {
	hash   uint64
	member int32
}

// NewRing builds a ring over members (deduplicated, order-independent:
// the same set always produces the same ring) with vnodes points per
// member (DefaultVirtualNodes when <= 0). An empty member list yields an
// empty ring whose lookups return nothing.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashString(fmt.Sprintf("%s#%d", m, v)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical hashes (vanishingly rare) tie-break on member so the
		// ring layout stays deterministic across rebuilds.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's member list (sorted, deduplicated).
func (r *Ring) Members() []string { return r.members }

// Len is the number of members on the ring.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.members[r.points[r.ownerPoint(key)].member]
}

// ownerPoint is the index of the first ring point clockwise from key.
func (r *Ring) ownerPoint(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0 // wrap: the lowest point owns the top of the keyspace
	}
	return i
}

// Sequence returns every member in ring order starting at key's owner: the
// failover order for that key. Element 0 is the owner; each later element
// is the next distinct member clockwise, the bucket's home if everything
// before it is down.
func (r *Ring) Sequence(key uint64) []string {
	if len(r.points) == 0 {
		return nil
	}
	seq := make([]string, 0, len(r.members))
	seen := make(map[int32]bool, len(r.members))
	for i, start := 0, r.ownerPoint(key); len(seq) < len(r.members) && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			seq = append(seq, r.members[p.member])
		}
	}
	return seq
}

// Key hashes a job's raw request bytes onto the ring keyspace. Routing on
// the body bytes keeps the router oblivious to the log format: the same
// serialized job always lands on the same replica (the cache-affinity
// property), at the cost of treating byte-different encodings of one job
// as different keys — which the canonical WriteLog encoding every client
// uses makes moot.
func Key(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
