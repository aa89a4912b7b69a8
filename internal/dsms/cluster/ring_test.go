package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterminism(t *testing.T) {
	a := NewRing(4, 64)
	b := NewRing(4, 64)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("source-%d", i)
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("placement of %s differs between identical rings: %d vs %d", id, a.Owner(id), b.Owner(id))
		}
	}
	if a.Epoch() != 1 {
		t.Fatalf("fresh ring epoch %d, want 1", a.Epoch())
	}
}

func TestRingAddShardMinimalMovement(t *testing.T) {
	r := NewRing(3, 64)
	before := make(map[string]int)
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("s%d", i)
		before[id] = r.Owner(id)
	}
	if err := r.AddShard(3); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for id, old := range before {
		now := r.Owner(id)
		if now != old {
			if now != 3 {
				t.Fatalf("%s moved %d -> %d, but only moves TO the new shard are allowed", id, old, now)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("adding a shard moved nothing — the new shard would stay empty")
	}
	if r.Epoch() != 2 {
		t.Fatalf("epoch %d after one mutation, want 2", r.Epoch())
	}
}

func TestRingRemoveShardSurvivorsKeepOwners(t *testing.T) {
	r := NewRing(4, 64)
	before := make(map[string]int)
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("s%d", i)
		before[id] = r.Owner(id)
	}
	if err := r.RemoveShard(2); err != nil {
		t.Fatal(err)
	}
	for id, old := range before {
		now := r.Owner(id)
		if old != 2 && now != old {
			t.Fatalf("%s owned by surviving shard %d moved to %d on unrelated removal", id, old, now)
		}
		if now == 2 {
			t.Fatalf("%s still placed on removed shard", id)
		}
	}
}

func TestRingPin(t *testing.T) {
	r := NewRing(2, 64)
	id := "pinned-stream"
	home := r.Owner(id)
	other := 1 - home
	r.Pin(id, other)
	if got := r.Owner(id); got != other {
		t.Fatalf("pinned owner %d, want %d", got, other)
	}
	if s, ok := r.pins[id]; !ok || s != other {
		t.Fatalf("pin = %d,%v, want %d,true", s, ok, other)
	}
	// Pinning back to the hash owner removes the override.
	r.Pin(id, home)
	if _, ok := r.pins[id]; ok {
		t.Fatal("pin to hash owner should clear the override")
	}
	if got := r.Owner(id); got != home {
		t.Fatalf("owner %d after unpin, want %d", got, home)
	}
}

// FuzzRingPlacement checks the ring's three contracts on arbitrary
// shard counts, vnode counts and id material: (1) placement is
// deterministic and in range; (2) load imbalance stays bounded at
// realistic vnode counts; (3) topology changes move only the streams
// they must.
func FuzzRingPlacement(f *testing.F) {
	f.Add(uint8(2), uint8(64), "sensor")
	f.Add(uint8(5), uint8(32), "a")
	f.Add(uint8(1), uint8(4), "xyz")
	f.Add(uint8(9), uint8(48), "stream-id-prefix")
	f.Fuzz(func(t *testing.T, nShards, vnodes uint8, prefix string) {
		ns := int(nShards%16) + 1
		vn := int(vnodes%61) + 4 // 4..64
		r := NewRing(ns, vn)
		r2 := NewRing(ns, vn)

		const ids = 300
		counts := make([]int, ns)
		owners := make(map[string]int, ids)
		for i := 0; i < ids; i++ {
			id := fmt.Sprintf("%s-%d", prefix, i)
			o := r.Owner(id)
			if o < 0 || o >= ns {
				t.Fatalf("owner %d out of range [0,%d)", o, ns)
			}
			if o2 := r2.Owner(id); o2 != o {
				t.Fatalf("identical rings disagree on %q: %d vs %d", id, o, o2)
			}
			counts[o]++
			owners[id] = o
		}
		// Bounded imbalance: with >=32 vnodes per shard, no shard holds
		// more than 3x its fair share of 300 ids.
		if vn >= 32 && ns > 1 {
			mean := float64(ids) / float64(ns)
			for s, c := range counts {
				if float64(c) > 3*mean {
					t.Fatalf("shard %d holds %d of %d ids (mean %.1f, vnodes %d) — imbalance above 3x", s, c, ids, mean, vn)
				}
			}
		}
		// Minimal movement on add: moves only TO the new shard.
		added := ns
		if err := r.AddShard(added); err != nil {
			t.Fatal(err)
		}
		for id, old := range owners {
			now := r.Owner(id)
			if now != old && now != added {
				t.Fatalf("add(%d) moved %q from %d to %d", added, id, old, now)
			}
		}
		// Minimal movement on remove: removing what we added restores
		// the exact original placement.
		if err := r.RemoveShard(added); err != nil {
			t.Fatal(err)
		}
		for id, old := range owners {
			if now := r.Owner(id); now != old {
				t.Fatalf("remove(%d) left %q on %d, originally %d", added, id, now, old)
			}
		}
	})
}
