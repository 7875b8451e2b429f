// Package cluster is the tcqrd sharded cache tier: a consistent-hash ring
// over the content-hash cache key (serve.CacheKey — DESIGN.md §14), a peer
// client that forwards /v1/factorize and /v1/solve over internal/wirefmt
// binary frames, liveness probing against each peer's /healthz (a peer is up
// or down), and a hinted-handoff queue that re-homes
// keys to their owner when forwarding fails.
//
// The package deliberately deals in opaque HTTP bodies and frames — request
// semantics (what to forward, what counts as a miss) live in internal/serve,
// which owns the wire vocabulary. Failpoint sites: cluster.route (peer
// forward transport), cluster.replicate (replica fan-out send),
// cluster.probe (health probe), cluster.handoff (hint delivery).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// Member is one node of the cluster: a stable id and a dialable host:port.
type Member struct {
	ID   string
	Addr string
}

// ParsePeers parses a "-peers" flag value of the form
// "id1=host:port,id2=host:port,..." into a member list. Every node passes
// the full membership, including itself; ids must be unique and non-empty.
func ParsePeers(spec string) ([]Member, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	seen := make(map[string]bool)
	var out []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: peer %q is not id=host:port", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		out = append(out, Member{ID: id, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return out, nil
}

// ring is a consistent-hash ring with virtual nodes. It is immutable after
// construction (membership is static for this PR; the handoff/probe machinery
// handles nodes that are present in the ring but down).
type ring struct {
	points  []ringPoint // sorted by hash
	members []Member
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// newRing places vnodes virtual points per member on a 64-bit ring. Virtual
// point i of member m hashes "m.ID#i"; keys hash with the same fnv-64a, so
// placement depends only on the id list, never on declaration order.
func newRing(members []Member, vnodes int) *ring {
	r := &ring{
		points:  make([]ringPoint, 0, len(members)*vnodes),
		members: append([]Member(nil), members...),
	}
	for mi, m := range r.members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(m.ID + "#" + strconv.Itoa(i)), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Tie-break on member id so equal hashes still order deterministically.
		return r.members[a.member].ID < r.members[b.member].ID
	})
	return r
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// owners returns the first n distinct members clockwise from key's hash, in
// preference order (owners[0] is the primary owner). n is clamped to the
// member count.
func (r *ring) owners(key string, n int) []Member {
	if n > len(r.members) {
		n = len(r.members)
	}
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]Member, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		out = append(out, r.members[p.member])
	}
	return out
}
