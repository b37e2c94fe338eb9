package store

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rdf"
)

// Tests for in-place commit building: nodes a waiter creates are updated in
// place by that waiter and frozen when it ends, so nothing reachable from a
// published version or a rollback point ever changes.

// TestTrieNodeSizes pins the memory layout: the mutable flag lives in the
// padding after the bitmap, so the in-place builder costs no heap.
func TestTrieNodeSizes(t *testing.T) {
	if got := unsafe.Sizeof(pnode[unit]{}); got != 32 {
		t.Errorf("pnode[unit] is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(pmap[unit]{}); got != 16 {
		t.Errorf("pmap[unit] is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(l2{}); got != 16 {
		t.Errorf("l2 is %d bytes, want 16", got)
	}
}

// TestTindexMarkedBatches drives the index through batches applied with a
// marks list, as the builder does: each batch starts from a saved value, is
// frozen at its end, and is sometimes rolled back to the saved value. Every
// saved and every kept value must still match the reference it was taken
// against after all later batches.
func TestTindexMarkedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	type key [3]ID
	type snap struct {
		ix  tindex
		ref map[key]bool
	}
	copyRef := func(ref map[key]bool) map[key]bool {
		out := make(map[key]bool, len(ref))
		for k := range ref {
			out[k] = true
		}
		return out
	}
	check := func(label string, ix tindex, ref map[key]bool) {
		t.Helper()
		n := 0
		ix.m.Range(func(a ID, br *l2) bool {
			br.m.Range(func(b ID, inner *pmap[unit]) bool {
				inner.Range(func(c ID, _ unit) bool {
					if !ref[key{a, b, c}] {
						t.Fatalf("%s: index holds %v, reference does not", label, key{a, b, c})
					}
					n++
					return true
				})
				return true
			})
			return true
		})
		if n != len(ref) {
			t.Fatalf("%s: index holds %d keys, reference %d", label, n, len(ref))
		}
		if err := ix.m.check(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	var ix tindex
	ref := map[key]bool{}
	var snaps []snap
	mk := &marks{}
	for batch := 0; batch < 300; batch++ {
		save, saveRef := ix, copyRef(ref)
		for op := 0; op < 1+rng.Intn(40); op++ {
			k := key{ID(rng.Intn(24)), ID(rng.Intn(24)), ID(rng.Intn(64))}
			if rng.Intn(64) == 0 {
				k[2] = ID(rng.Uint32())
			}
			if rng.Intn(3) > 0 {
				next, added := ix.with(k[0], k[1], k[2], mk)
				if added == ref[k] {
					t.Fatalf("batch %d: with(%v) added=%v, ref had=%v", batch, k, added, ref[k])
				}
				ix = next
				ref[k] = true
			} else {
				next, removed := ix.without(k[0], k[1], k[2], mk)
				if removed != ref[k] {
					t.Fatalf("batch %d: without(%v) removed=%v, ref had=%v", batch, k, removed, ref[k])
				}
				ix = next
				delete(ref, k)
			}
		}
		mk.freeze()
		if rng.Intn(4) == 0 {
			// Roll back: the saved value must be exactly as it was.
			ix, ref = save, saveRef
		}
		check(fmt.Sprintf("batch %d", batch), ix, ref)
		if batch%10 == 0 {
			snaps = append(snaps, snap{ix, copyRef(ref)})
		}
	}
	for i, s := range snaps {
		check(fmt.Sprintf("snapshot %d", i), s.ix, s.ref)
	}
}

// buildTriple names triple (s, p, o) of the property test's small space.
func buildTriple(s, p, o int) rdf.Triple {
	return rdf.T(
		rdf.IRI(fmt.Sprintf("http://example.org/build/s%d", s)),
		rdf.IRI(fmt.Sprintf("http://example.org/build/p%d", p)),
		rdf.NewString(fmt.Sprintf("o%d", o)),
	)
}

// TestGroupRollbackKeepsEarlierWaiters commits one group by hand: a waiter
// that lands, then an atomic batch that builds on the first waiter's nodes
// and fails on its last op. The group must publish exactly the first
// waiter's triples, and a view pinned before the group must not move.
func TestGroupRollbackKeepsEarlierWaiters(t *testing.T) {
	s := New()
	s.AddAll([]rdf.Triple{buildTriple(0, 0, 0), buildTriple(1, 0, 0)})
	pinned := s.View()
	before := pinned.Triples()

	var first, second []rdf.Triple
	for o := 1; o < 40; o++ {
		first = append(first, buildTriple(0, 0, o), buildTriple(2, o%3, o))
		second = append(second, buildTriple(0, 0, 100+o), buildTriple(2, o%3, 100+o))
	}
	ok := &commitWaiter{ops: []Op{{Kind: OpAdd, Triples: first}}, done: make(chan struct{})}
	bad := &commitWaiter{ops: []Op{
		{Kind: OpAdd, Triples: second},
		{Kind: OpReplace, Triples: []rdf.Triple{buildTriple(9, 9, 9), buildTriple(9, 9, 10)}, MustExist: true},
	}, atomic: true, done: make(chan struct{})}
	s.writeMu.Lock()
	s.commitGroup([]*commitWaiter{ok, bad})
	s.writeMu.Unlock()

	if ok.err != nil {
		t.Fatalf("first waiter failed: %v", ok.err)
	}
	var be *BatchError
	if !errors.As(bad.err, &be) || be.Index != 1 || !errors.Is(bad.err, ErrAbsent) {
		t.Fatalf("second waiter error = %v, want BatchError at op 1 wrapping ErrAbsent", bad.err)
	}
	if got, want := s.Len(), 2+len(first); got != want {
		t.Fatalf("store has %d triples, want %d", got, want)
	}
	for _, tr := range second {
		if s.Has(tr) {
			t.Fatalf("rolled-back triple %v was published", tr)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pinned.Validate(); err != nil {
		t.Fatalf("pinned view: %v", err)
	}
	if !sameTriples(pinned.Triples(), before) {
		t.Fatal("a view pinned before the group changed")
	}
}

func sameTriples(a, b []rdf.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(ts []rdf.Triple) []string {
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = t.String()
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// TestConcurrentBatchesAgainstModel is the store's property test: writers
// commit random atomic batches concurrently, some of which fail on a
// MustExist miss after several ops have already been applied. Each writer
// owns its subjects, so the final state is the union of per-writer models
// whatever the interleaving. Every view pinned along the way must give the
// same triples and pass Validate after all later commits.
func TestConcurrentBatchesAgainstModel(t *testing.T) {
	const writers, batches = 4, 150
	s := New()
	models := make([]map[rdf.Triple]bool, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		models[w] = map[rdf.Triple]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			model := models[w]
			tr := func() rdf.Triple {
				return buildTriple(w*10+rng.Intn(3), rng.Intn(3), rng.Intn(12))
			}
			for i := 0; i < batches; i++ {
				next := make(map[rdf.Triple]bool, len(model))
				for k := range model {
					next[k] = true
				}
				var ops []Op
				for j := 0; j < 1+rng.Intn(6); j++ {
					switch rng.Intn(4) {
					case 0, 1:
						ts := []rdf.Triple{tr(), tr(), tr()}
						ops = append(ops, Op{Kind: OpAdd, Triples: ts})
						for _, x := range ts {
							next[x] = true
						}
					case 2:
						ts := []rdf.Triple{tr(), tr()}
						ops = append(ops, Op{Kind: OpRemove, Triples: ts})
						for _, x := range ts {
							delete(next, x)
						}
					case 3:
						old, nw := tr(), tr()
						ops = append(ops, Op{Kind: OpReplace, Triples: []rdf.Triple{old, nw}})
						if next[old] {
							delete(next, old)
							next[nw] = true
						}
					}
				}
				fail := rng.Intn(4) == 0
				if fail {
					ops = append(ops, Op{Kind: OpReplace, MustExist: true, Triples: []rdf.Triple{
						buildTriple(999, 0, 0), tr()}})
				}
				_, err := s.ApplyBatch(ops)
				if fail != (err != nil) {
					t.Errorf("writer %d batch %d: fail=%v err=%v", w, i, fail, err)
					return
				}
				if !fail {
					model = next
				}
			}
			models[w] = model
		}(w)
	}

	type pin struct {
		v  StoreView
		ts []rdf.Triple
	}
	var pins []pin
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if v := s.View(); len(pins) == 0 || v.Epoch() != pins[len(pins)-1].v.Epoch() {
			pins = append(pins, pin{v, v.Triples()})
		}
		runtime.Gosched()
	}

	for i, p := range pins {
		if err := p.v.Validate(); err != nil {
			t.Fatalf("pin %d: %v", i, err)
		}
		if !sameTriples(p.v.Triples(), p.ts) {
			t.Fatalf("pin %d changed after later commits", i)
		}
	}
	want := map[rdf.Triple]bool{}
	for _, m := range models {
		for k := range m {
			want[k] = true
		}
	}
	got := s.Triples()
	if len(got) != len(want) {
		t.Fatalf("store holds %d triples, model %d", len(got), len(want))
	}
	for _, tr := range got {
		if !want[tr] {
			t.Fatalf("store holds %v, model does not", tr)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
