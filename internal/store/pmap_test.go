package store

import (
	"math/rand"
	"testing"
)

// The persistent HAMT is the foundation every MVCC guarantee rests on: a
// version is immutable exactly as long as With/Without never touch shared
// nodes. These tests drive pmap and tindex against plain-map references
// through long randomized histories and re-verify earlier snapshots after
// every later mutation — a use-after-publish bug shows up as a drifted
// snapshot.

func TestPmapAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var m *pmap[int]
	ref := map[ID]int{}

	type snap struct {
		m   *pmap[int]
		ref map[ID]int
	}
	var snaps []snap

	check := func(step int, m *pmap[int], ref map[ID]int) {
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref))
		}
		seen := 0
		m.Range(func(k ID, v int) bool {
			want, ok := ref[k]
			if !ok || want != v {
				t.Fatalf("step %d: Range yielded %d=%d, ref has %d,%v", step, k, v, want, ok)
			}
			seen++
			return true
		})
		if seen != len(ref) {
			t.Fatalf("step %d: Range yielded %d entries, want %d", step, seen, len(ref))
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("step %d: Get(%d) = %d,%v, want %d,true", step, k, got, ok, want)
			}
		}
	}

	for step := 0; step < 4000; step++ {
		// Keys cluster in a small space so collisions, overwrites and removes
		// of absent keys all happen; a few high keys exercise deep branches.
		key := ID(rng.Intn(256))
		if rng.Intn(16) == 0 {
			key = ID(rng.Uint32())
		}
		switch rng.Intn(3) {
		case 0, 1:
			val := rng.Intn(1000)
			_, hadRef := ref[key]
			next, added := m.with(key, val, nil)
			if added == hadRef {
				t.Fatalf("step %d: With(%d) added=%v, ref had=%v", step, key, added, hadRef)
			}
			m = next
			ref[key] = val
		case 2:
			_, hadRef := ref[key]
			next, removed := m.without(key, nil)
			if removed != hadRef {
				t.Fatalf("step %d: Without(%d) removed=%v, ref had=%v", step, key, removed, hadRef)
			}
			m = next
			delete(ref, key)
		}
		if step%500 == 0 {
			refCopy := make(map[ID]int, len(ref))
			for k, v := range ref {
				refCopy[k] = v
			}
			snaps = append(snaps, snap{m, refCopy})
		}
	}
	check(4000, m, ref)

	// Persistence: every snapshot must still agree with the reference map it
	// was taken against, untouched by thousands of later mutations.
	for i, s := range snaps {
		check(i, s.m, s.ref)
	}
}

func TestPmapAbsentKeyLookups(t *testing.T) {
	var m *pmap[string]
	if _, ok := m.Get(7); ok {
		t.Error("Get on nil pmap reported a hit")
	}
	if next, removed := m.without(7, nil); removed || next.Len() != 0 {
		t.Error("Without on nil pmap claimed a removal")
	}
	m, _ = m.with(7, "a", nil)
	if _, ok := m.Get(8); ok {
		t.Error("Get of absent sibling key reported a hit")
	}
	if next, added := m.with(7, "b", nil); added || next.Len() != 1 {
		t.Error("overwrite of existing key reported as insertion")
	}
	if got, _ := m.Get(7); got != "a" {
		t.Error("overwrite mutated the original map")
	}
}

func TestTindexAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var ix tindex
	type key [3]ID
	ref := map[key]bool{}
	var snaps []struct {
		ix  tindex
		ref map[key]bool
	}

	check := func(step int, ix tindex, ref map[key]bool) {
		card := map[ID]int{}
		card2 := map[[2]ID]int{}
		firsts := map[ID]bool{}
		for k := range ref {
			if !ix.has(k[0], k[1], k[2]) {
				t.Fatalf("step %d: has(%v) = false for present key", step, k)
			}
			card[k[0]]++
			card2[[2]ID{k[0], k[1]}]++
			firsts[k[0]] = true
		}
		for a, want := range card {
			if got := ix.card(a); got != want {
				t.Fatalf("step %d: card(%d) = %d, want %d", step, a, got, want)
			}
		}
		for ab, want := range card2 {
			if got := ix.card2(ab[0], ab[1]); got != want {
				t.Fatalf("step %d: card2(%v) = %d, want %d", step, ab, got, want)
			}
		}
		if got := ix.keys(); got != len(firsts) {
			t.Fatalf("step %d: keys() = %d, want %d", step, got, len(firsts))
		}
	}

	for step := 0; step < 3000; step++ {
		k := key{ID(rng.Intn(16)), ID(rng.Intn(16)), ID(rng.Intn(32))}
		if rng.Intn(2) == 0 {
			next, added := ix.with(k[0], k[1], k[2], nil)
			if added == ref[k] {
				t.Fatalf("step %d: with(%v) added=%v, ref had=%v", step, k, added, ref[k])
			}
			ix = next
			ref[k] = true
		} else {
			next, removed := ix.without(k[0], k[1], k[2], nil)
			if removed != ref[k] {
				t.Fatalf("step %d: without(%v) removed=%v, ref had=%v", step, k, removed, ref[k])
			}
			ix = next
			delete(ref, k)
		}
		if ix.has(k[0], k[1], ID(999)) {
			t.Fatalf("step %d: has hit on absent third key", step)
		}
		if step%500 == 0 {
			refCopy := make(map[key]bool, len(ref))
			for kk := range ref {
				refCopy[kk] = true
			}
			snaps = append(snaps, struct {
				ix  tindex
				ref map[key]bool
			}{ix, refCopy})
		}
	}
	check(3000, ix, ref)
	for i, s := range snaps {
		check(i, s.ix, s.ref)
	}
}
