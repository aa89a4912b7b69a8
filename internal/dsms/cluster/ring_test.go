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

// TestRingPlacementGolden pins placement across releases: a stream's
// owner decides which shard's WAL holds it, so a ring that places the
// same id elsewhere after an upgrade strands durable state. The expected
// owners are recorded, not computed.
func TestRingPlacementGolden(t *testing.T) {
	var ids []string
	for _, p := range []string{"sensor-", "obj-", "load-"} {
		for i := 0; i < 15; i++ {
			ids = append(ids, fmt.Sprintf("%s%d", p, i))
		}
	}
	ids = append(ids, "", "a", "obj", "load", "dense/probe")
	for _, c := range []struct {
		shards, vnodes int
		want           string // owner of ids[i] as its i-th digit
	}{
		{2, 64, "11001000100101011011010001100100110000111110101110"},
		{5, 32, "11031430102133423312442001304232132030324243001214"},
	} {
		r := NewRing(c.shards, c.vnodes)
		for i, id := range ids {
			if got, want := r.Owner(id), int(c.want[i]-'0'); got != want {
				t.Errorf("NewRing(%d, %d).Owner(%q) = %d, want %d", c.shards, c.vnodes, id, got, want)
			}
		}
	}
	r := NewRing(5, 32)
	r.Pin("sensor-3", 4)
	if got := r.Owner("sensor-3"); got != 4 {
		t.Errorf("pinned owner %d, want 4", got)
	}
	if got := r.Owner("sensor-4"); got != 1 {
		t.Errorf("unpinned neighbour's owner %d, want 1", got)
	}
	if got := r.Epoch(); got != 2 {
		t.Errorf("epoch after one Pin %d, want 2", got)
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

// FuzzRingPlacement checks the ring's two contracts on arbitrary
// shard counts, vnode counts and id material: (1) placement is
// deterministic and in range; (2) load imbalance stays bounded at
// realistic vnode counts.
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
	})
}
