// Package cluster lifts the single-server DSMS to a sharded cluster:
// a consistent-hash placement ring maps every source id to an owning
// shard, a Router speaks the unmodified v2 wire protocol to sources
// and forwards their updates to the owning shard over pooled pipelined
// upstream connections, cross-shard aggregates are answered by merging
// per-shard partials, and live streams migrate between shards by
// checkpoint snapshot plus ResumeSeq cutover. Sources need zero
// changes: to them the router is just a DSMS server.
//
// Layout: ring.go places streams; router.go is the front door (source
// connections, the forward path, routes — which keep no update: a
// shard's loss is repaired by its sources' resends, Router.resume —
// queries, shard recovery); upstream.go is the pooled
// connection to a shard and every router→shard protocol step, each
// written once on upstream.rpc; migrate.go moves a live stream;
// trace.go, fleet.go, events.go and admin.go are the observability
// plane, mounted on the shard server's admin kit (dsms.StartAdmin).
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultVNodes is the virtual-node count per shard — enough that the
// FNV point spread keeps shard loads within a small factor of the mean
// (see FuzzRingPlacement) while the ring stays tiny.
const DefaultVNodes = 64

// fnv1a is the 64-bit FNV-1a hash run through a splitmix64-style
// finalizer. Raw FNV-1a disperses poorly in the high bits for the
// near-identical strings a ring hashes ("shard-3-vnode-17", sequential
// source ids), and ring ordering is dominated by the high bits — a
// shard's vnodes can cluster and capture nothing. The
// finalizer avalanches every input bit across the word while keeping
// the function deterministic across processes and platforms, which is
// what makes every router and every test agree on sourceID→shard
// placement.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ringPoint is one virtual node: a hash position owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash placement ring with virtual nodes and a
// versioned topology epoch. Ownership is deterministic: the same shard
// set and vnode count always produce the same mapping, so routers,
// shards and tests can compute placement independently. Individual
// streams can be pinned away from their hash owner (the migration
// escape hatch); every mutation bumps the epoch.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint
	pins   map[string]int // sourceID -> shard, overriding hash placement
	epoch  int64
}

// NewRing builds a ring of shards 0..shards-1 with vnodes virtual
// nodes per shard (0 means DefaultVNodes). The fresh ring is epoch 1.
func NewRing(shards, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, pins: make(map[string]int), epoch: 1}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := fnv1a(fmt.Sprintf("shard-%d-vnode-%d", s, v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (astronomically rare but possible) break by shard
		// index so the ordering — and therefore ownership — stays total
		// and deterministic.
		return a.shard < b.shard
	})
	return r
}

// Owner returns the shard owning sourceID: its pin if one exists, else
// the first ring point at or after the id's hash (wrapping).
func (r *Ring) Owner(sourceID string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownerLocked(sourceID)
}

func (r *Ring) ownerLocked(sourceID string) int {
	if s, ok := r.pins[sourceID]; ok {
		return s
	}
	if len(r.points) == 0 {
		return -1
	}
	h := fnv1a(sourceID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Epoch returns the current topology version.
func (r *Ring) Epoch() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Pin overrides sourceID's placement to shard — the durable half of a
// migration — and bumps the epoch. Pinning to the hash owner simply
// removes the override.
func (r *Ring) Pin(sourceID string, shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pins, sourceID)
	if r.ownerLocked(sourceID) != shard {
		r.pins[sourceID] = shard
	}
	r.epoch++
}
