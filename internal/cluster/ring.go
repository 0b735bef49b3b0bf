// Package cluster is the fault-tolerant routing tier in front of a
// fleet of vsfs-serve replicas. Because every response is
// content-addressed and deterministic (the server-cache-identity
// invariant), any replica can serve any key and produce byte-identical
// fixpoint-shaped output — so the gateway is free to retry, fail over,
// and hedge aggressively without ever changing an answer. The oracle
// enforces exactly that as gateway-eq-direct.
//
// The pieces:
//
//   - Ring: a consistent-hash ring over the replica set with the
//     bounded-load refinement, so one hot program cannot saturate its
//     home replica while the rest idle.
//   - healthChecker: active readiness probing of GET /readyz with
//     ejection after consecutive failures and readmission after
//     consecutive successes.
//   - Backoff: capped exponential retry delays with seeded full jitter
//     that honor upstream Retry-After.
//   - Gateway: the http.Handler tying it together — routing, retries,
//     failover, hedging, metrics, and graceful drain.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVirtualNodes is how many points each replica occupies on the
// ring: enough that removing one replica spreads its keyspace across
// every survivor instead of dumping it on one neighbour.
const DefaultVirtualNodes = 64

// DefaultLoadFactor is the bounded-load constant c: a replica may hold
// at most ceil(c · mean) in-flight requests before Pick spills its keys
// to the next replica on the ring.
const DefaultLoadFactor = 1.25

// Ring is a consistent-hash ring over named replicas with bounded-load
// routing and health-driven membership. All methods are safe for
// concurrent use.
type Ring struct {
	mu         sync.Mutex
	vnodesPer  int
	loadFactor float64
	replicas   map[string]*ringMember
	vnodes     []vnode // healthy members' points, sorted by hash
	rebalances int64
}

type ringMember struct {
	name     string
	healthy  bool
	inflight int
}

type vnode struct {
	hash uint64
	name string
}

// NewRing builds a ring over the given replica names, all initially
// healthy. vnodesPer ≤ 0 and loadFactor ≤ 1 select the defaults.
func NewRing(names []string, vnodesPer int, loadFactor float64) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one replica")
	}
	if vnodesPer <= 0 {
		vnodesPer = DefaultVirtualNodes
	}
	if loadFactor <= 1 {
		loadFactor = DefaultLoadFactor
	}
	r := &Ring{
		vnodesPer:  vnodesPer,
		loadFactor: loadFactor,
		replicas:   make(map[string]*ringMember, len(names)),
	}
	for _, n := range names {
		if _, dup := r.replicas[n]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica %q", n)
		}
		r.replicas[n] = &ringMember{name: n, healthy: true}
	}
	r.rebuildLocked()
	return r, nil
}

// rebuildLocked regenerates the sorted vnode list from the healthy
// members. Caller holds mu.
func (r *Ring) rebuildLocked() {
	r.vnodes = r.vnodes[:0]
	for _, m := range r.replicas {
		if !m.healthy {
			continue
		}
		for i := 0; i < r.vnodesPer; i++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", m.name, i)
			r.vnodes = append(r.vnodes, vnode{hash: h.Sum64(), name: m.name})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		return r.vnodes[i].name < r.vnodes[j].name
	})
}

// SetHealthy flips one replica's membership and reports whether that
// changed anything. Membership changes rebuild the vnode list (a "ring
// rebalance").
func (r *Ring) SetHealthy(name string, healthy bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.replicas[name]
	if m == nil || m.healthy == healthy {
		return false
	}
	m.healthy = healthy
	r.rebuildLocked()
	r.rebalances++
	return true
}

// Healthy reports one replica's current membership.
func (r *Ring) Healthy(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.replicas[name]
	return m != nil && m.healthy
}

// Rebalances counts membership changes since the ring was built.
func (r *Ring) Rebalances() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rebalances
}

// Acquire charges one in-flight request to name's bounded-load
// accounting; pair with Release.
func (r *Ring) Acquire(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.replicas[name]; m != nil {
		m.inflight++
	}
}

// Release returns Acquire's charge.
func (r *Ring) Release(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.replicas[name]; m != nil && m.inflight > 0 {
		m.inflight--
	}
}

// Inflight reports name's current bounded-load charge.
func (r *Ring) Inflight(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.replicas[name]; m != nil {
		return m.inflight
	}
	return 0
}

// Pick returns the failover order for key: every distinct replica in
// ring-walk order from hash(key), with the bounded-load refinement —
// replicas already at or over capacity (ceil(c · (total+1)/n) in-flight
// requests) are moved behind the under-capacity ones, preserving walk
// order within each class. The first entry is the primary. When every
// replica is unhealthy, the walk runs over the full membership instead:
// probes can be wrong, and trying a replica beats refusing the request
// outright.
func (r *Ring) Pick(key string) []string {
	h := fnv.New64a()
	h.Write([]byte(key))
	kh := h.Sum64()

	r.mu.Lock()
	defer r.mu.Unlock()

	vn := r.vnodes
	candidates := len(vn) / max(r.vnodesPer, 1)
	if len(vn) == 0 {
		// Total eclipse: walk the full membership, deterministically.
		for _, m := range r.replicas {
			for i := 0; i < r.vnodesPer; i++ {
				hh := fnv.New64a()
				fmt.Fprintf(hh, "%s#%d", m.name, i)
				vn = append(vn, vnode{hash: hh.Sum64(), name: m.name})
			}
		}
		sort.Slice(vn, func(i, j int) bool {
			if vn[i].hash != vn[j].hash {
				return vn[i].hash < vn[j].hash
			}
			return vn[i].name < vn[j].name
		})
		candidates = len(r.replicas)
	}
	if len(vn) == 0 {
		return nil
	}

	start := sort.Search(len(vn), func(i int) bool { return vn[i].hash >= kh })
	var walk []string
	seen := make(map[string]bool, candidates)
	for i := 0; len(walk) < candidates && i < len(vn); i++ {
		n := vn[(start+i)%len(vn)].name
		if !seen[n] {
			seen[n] = true
			walk = append(walk, n)
		}
	}

	// Bounded load: capacity = ceil(c · (inflight+1) / replicas).
	total := 0
	for _, n := range walk {
		total += r.replicas[n].inflight
	}
	capacity := int(r.loadFactor * float64(total+1) / float64(len(walk)))
	if float64(capacity) < r.loadFactor*float64(total+1)/float64(len(walk)) {
		capacity++
	}
	if capacity < 1 {
		capacity = 1
	}
	under := make([]string, 0, len(walk))
	var over []string
	for _, n := range walk {
		if r.replicas[n].inflight < capacity {
			under = append(under, n)
		} else {
			over = append(over, n)
		}
	}
	return append(under, over...)
}

// Members returns every replica name, sorted.
func (r *Ring) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.replicas))
	for n := range r.replicas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RouteKey content-addresses a request body the way the replica tier's
// result cache does — SHA-256 over (mode, language, source),
// NUL-separated — so a program's requests always walk the ring from the
// same point and land on the replica that already holds the result. A body the gateway cannot decode hashes as raw bytes: the
// replica will reject it, but deterministically via the same path.
func RouteKey(mode, lang, source string) string {
	if mode == "" {
		mode = "vsfs"
	}
	if lang == "" {
		lang = "c"
	}
	h := sha256.New()
	h.Write([]byte(mode))
	h.Write([]byte{0})
	h.Write([]byte(lang))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}
