package store

import (
	"fmt"
	"math/bits"
)

// This file implements the persistent (immutable, structurally shared) map
// that backs the MVCC triple indexes. It is a hash-array-mapped-trie
// specialized for dense uint32 dictionary IDs: keys are consumed 5 bits at a
// time starting from the least significant bits, so the sequential IDs the
// dictionary hands out spread evenly across the fanout-32 nodes and the trie
// stays shallow (depth ≤ 7 for the full 32-bit key space).
//
// Updates path-copy: with/without allocate only the nodes along the root →
// leaf path (≤ 7 nodes) and share everything else with the previous map, so
// publishing a new store version after a mutation is O(log n) allocation
// while every previously captured version stays valid and immutable forever.
// A nil *pmap is the canonical empty map; all methods are nil-safe.
//
// One commit need not pay that copy more than once per node. Every node an
// update creates while a marks list is supplied is flagged mutable, and later
// updates through the same list change flagged nodes in place instead of
// copying them again. The commit builder clears every flag when the waiter
// that set it ends (see marks), so a node reachable from a published version
// or from a rollback point is never flagged and never changes.

const (
	pmBits   = 5
	pmFanout = 1 << pmBits
	pmMask   = pmFanout - 1
)

// unit is the value type used when a pmap is a set.
type unit = struct{}

// pentry is one slot of a pnode: either a leaf (key, val) or an interior
// subtree (node != nil; key/val are then unused).
type pentry[V any] struct {
	key  ID
	val  V
	node *pnode[V]
}

// pnode is a bitmap-compressed trie node: bit i of bitmap is set iff slot i
// is occupied, and entries holds the occupied slots packed in slot order.
// mutable marks a node created by the commit waiter now being applied; it
// sits in the padding after bitmap, so a node stays 32 bytes.
type pnode[V any] struct {
	bitmap  uint32
	mutable bool
	entries []pentry[V]
}

// pmap pairs a root node with a cached element count so Len is O(1) — the
// planner's cardinality estimates depend on that. A pmap whose root is
// mutable was created by the current waiter and is updated in place too.
type pmap[V any] struct {
	root *pnode[V]
	n    int
}

// marks lists the mutable flags one commit waiter has set. A nil *marks
// makes every update a plain path copy.
type marks struct {
	flags []*bool
}

// newNode returns a node, flagged mutable and recorded when mk is non-nil.
func newNode[V any](mk *marks, bitmap uint32, entries []pentry[V]) *pnode[V] {
	nd := &pnode[V]{bitmap: bitmap, entries: entries}
	if mk != nil {
		nd.mutable = true
		mk.flags = append(mk.flags, &nd.mutable)
	}
	return nd
}

// freeze clears every flag recorded since the last freeze. After it, all
// nodes the waiter built are as immutable as any published node.
func (mk *marks) freeze() {
	for i, f := range mk.flags {
		*f = false
		mk.flags[i] = nil
	}
	mk.flags = mk.flags[:0]
}

// owned reports whether m was created by the current waiter, and may
// therefore be updated in place.
func (m *pmap[V]) owned() bool { return m != nil && m.root.mutable }

// Len returns the number of entries. Nil-safe.
func (m *pmap[V]) Len() int {
	if m == nil {
		return 0
	}
	return m.n
}

// Get returns the value stored under key.
func (m *pmap[V]) Get(key ID) (V, bool) {
	var zero V
	if m == nil {
		return zero, false
	}
	nd, shift := m.root, uint(0)
	for nd != nil {
		bit := uint32(1) << ((key >> shift) & pmMask)
		if nd.bitmap&bit == 0 {
			return zero, false
		}
		e := &nd.entries[bits.OnesCount32(nd.bitmap&(bit-1))]
		if e.node == nil {
			if e.key == key {
				return e.val, true
			}
			return zero, false
		}
		nd = e.node
		shift += pmBits
	}
	return zero, false
}

// with returns a map with key bound to val. added reports whether key was
// absent before. A map owned by the current waiter is updated and returned
// in place; any other map is left unchanged and shares structure with the
// result.
func (m *pmap[V]) with(key ID, val V, mk *marks) (*pmap[V], bool) {
	if m.owned() {
		_, added := pnodeWith(m.root, key, val, 0, mk)
		if added {
			m.n++
		}
		return m, added
	}
	var root *pnode[V]
	n := 0
	if m != nil {
		root, n = m.root, m.n
	}
	nr, added := pnodeWith(root, key, val, 0, mk)
	if added {
		n++
	}
	return &pmap[V]{root: nr, n: n}, added
}

// without returns a map with key removed, in place when the current waiter
// owns m. removed reports whether key was present. Removing the last entry
// returns nil (the canonical empty map).
func (m *pmap[V]) without(key ID, mk *marks) (*pmap[V], bool) {
	if m == nil {
		return nil, false
	}
	nr, removed := pnodeWithout(m.root, key, 0, mk)
	if !removed {
		return m, false
	}
	if m.n == 1 {
		return nil, true
	}
	if m.owned() {
		m.n--
		return m, true
	}
	return &pmap[V]{root: nr, n: m.n - 1}, true
}

// Range calls fn for every entry until fn returns false; the return value
// reports whether iteration ran to completion. Order is unspecified but
// deterministic for a given map value.
func (m *pmap[V]) Range(fn func(ID, V) bool) bool {
	if m == nil {
		return true
	}
	return pnodeRange(m.root, fn)
}

// check verifies m's structure: the cached count matches the entries, every
// bitmap matches its node's entries, and no node is still mutable — a
// published map must be frozen.
func (m *pmap[V]) check() error {
	if m == nil {
		return nil
	}
	if m.root == nil {
		return fmt.Errorf("non-nil map with nil root")
	}
	n, err := pnodeCheck(m.root)
	if err != nil {
		return err
	}
	if n != m.n {
		return fmt.Errorf("cached count %d != %d entries", m.n, n)
	}
	return nil
}

func pnodeCheck[V any](nd *pnode[V]) (int, error) {
	if nd.mutable {
		return 0, fmt.Errorf("node left mutable")
	}
	if bits.OnesCount32(nd.bitmap) != len(nd.entries) || len(nd.entries) == 0 {
		return 0, fmt.Errorf("bitmap %032b does not match %d entries", nd.bitmap, len(nd.entries))
	}
	n := 0
	for i := range nd.entries {
		if c := nd.entries[i].node; c != nil {
			k, err := pnodeCheck(c)
			if err != nil {
				return 0, err
			}
			n += k
		} else {
			n++
		}
	}
	return n, nil
}

func cloneEntries[V any](es []pentry[V]) []pentry[V] {
	out := make([]pentry[V], len(es))
	copy(out, es)
	return out
}

// pnodeWith binds key to val beneath nd. A mutable nd is updated in place
// and returned; any other nd is path-copied. A slot insertion always
// allocates the entries at their exact new size, so mutable nodes carry no
// append slack.
func pnodeWith[V any](nd *pnode[V], key ID, val V, shift uint, mk *marks) (*pnode[V], bool) {
	bit := uint32(1) << ((key >> shift) & pmMask)
	if nd == nil {
		return newNode(mk, bit, []pentry[V]{{key: key, val: val}}), true
	}
	idx := bits.OnesCount32(nd.bitmap & (bit - 1))
	if nd.bitmap&bit == 0 {
		ents := make([]pentry[V], len(nd.entries)+1)
		copy(ents, nd.entries[:idx])
		ents[idx] = pentry[V]{key: key, val: val}
		copy(ents[idx+1:], nd.entries[idx:])
		if nd.mutable {
			nd.bitmap |= bit
			nd.entries = ents
			return nd, true
		}
		return newNode(mk, nd.bitmap|bit, ents), true
	}
	e := nd.entries[idx]
	var ne pentry[V]
	added := true
	switch {
	case e.node != nil:
		var child *pnode[V]
		child, added = pnodeWith(e.node, key, val, shift+pmBits, mk)
		if child == e.node {
			// Updated in place below; nd already points at it.
			return nd, added
		}
		ne = pentry[V]{node: child}
	case e.key == key:
		ne = pentry[V]{key: key, val: val}
		added = false
	default:
		// Two distinct keys share this slot: push both one level down.
		// Distinct 32-bit keys must diverge by shift 30, so the recursion
		// terminates.
		ne = pentry[V]{node: pnodeTwo(e.key, e.val, key, val, shift+pmBits, mk)}
	}
	if nd.mutable {
		nd.entries[idx] = ne
		return nd, added
	}
	ents := cloneEntries(nd.entries)
	ents[idx] = ne
	return newNode(mk, nd.bitmap, ents), added
}

// pnodeTwo builds the minimal subtree holding two distinct keys starting at
// shift.
func pnodeTwo[V any](k1 ID, v1 V, k2 ID, v2 V, shift uint, mk *marks) *pnode[V] {
	s1 := (k1 >> shift) & pmMask
	s2 := (k2 >> shift) & pmMask
	if s1 == s2 {
		child := pnodeTwo(k1, v1, k2, v2, shift+pmBits, mk)
		return newNode(mk, 1<<s1, []pentry[V]{{node: child}})
	}
	e1 := pentry[V]{key: k1, val: v1}
	e2 := pentry[V]{key: k2, val: v2}
	if s1 > s2 {
		e1, e2 = e2, e1
	}
	return newNode(mk, 1<<s1|1<<s2, []pentry[V]{e1, e2})
}

// pnodeWithout removes key beneath nd, in place when nd is mutable.
func pnodeWithout[V any](nd *pnode[V], key ID, shift uint, mk *marks) (*pnode[V], bool) {
	if nd == nil {
		return nil, false
	}
	bit := uint32(1) << ((key >> shift) & pmMask)
	if nd.bitmap&bit == 0 {
		return nd, false
	}
	idx := bits.OnesCount32(nd.bitmap & (bit - 1))
	e := nd.entries[idx]
	if e.node == nil {
		if e.key != key {
			return nd, false
		}
		return pnodeDrop(nd, bit, idx, mk), true
	}
	child, removed := pnodeWithout(e.node, key, shift+pmBits, mk)
	if !removed {
		return nd, false
	}
	if child == nil {
		return pnodeDrop(nd, bit, idx, mk), true
	}
	ne := pentry[V]{node: child}
	if len(child.entries) == 1 && child.entries[0].node == nil {
		// Collapse a single-leaf subtree back into a leaf at this level so
		// lookups after heavy deletion stay shallow.
		ne = child.entries[0]
	}
	if nd.mutable {
		nd.entries[idx] = ne
		return nd, true
	}
	ents := cloneEntries(nd.entries)
	ents[idx] = ne
	return newNode(mk, nd.bitmap, ents), true
}

// pnodeDrop removes entry idx (slot bit) from nd, returning nil when nd
// becomes empty. The remaining entries are reallocated at their exact size.
func pnodeDrop[V any](nd *pnode[V], bit uint32, idx int, mk *marks) *pnode[V] {
	if len(nd.entries) == 1 {
		return nil
	}
	ents := make([]pentry[V], len(nd.entries)-1)
	copy(ents, nd.entries[:idx])
	copy(ents[idx:], nd.entries[idx+1:])
	if nd.mutable {
		nd.bitmap &^= bit
		nd.entries = ents
		return nd
	}
	return newNode(mk, nd.bitmap&^bit, ents)
}

func pnodeRange[V any](nd *pnode[V], fn func(ID, V) bool) bool {
	if nd == nil {
		return true
	}
	for i := range nd.entries {
		e := &nd.entries[i]
		if e.node != nil {
			if !pnodeRange(e.node, fn) {
				return false
			}
		} else if !fn(e.key, e.val) {
			return false
		}
	}
	return true
}

// ---- Triple index over pmaps ------------------------------------------------

// l2 is one top-level branch of a triple index: the two inner levels plus
// the number of triples beneath this branch. That count is the per-position
// cardinality (triples per bound subject/predicate/object) the planner reads
// through EstimateIDs in O(1); keeping it inside the immutable branch means
// every pinned version carries its own consistent statistics.
type l2 struct {
	m    *pmap[*pmap[unit]]
	size int
}

// tindex is a persistent three-level triple index (e.g. S→P→O). The zero
// value is the empty index.
type tindex struct {
	m *pmap[*l2]
}

func (ix tindex) has(a, b, c ID) bool {
	br, ok := ix.m.Get(a)
	if !ok {
		return false
	}
	inner, ok := br.m.Get(b)
	if !ok {
		return false
	}
	_, ok = inner.Get(c)
	return ok
}

// card returns the number of triples under top-level key a.
func (ix tindex) card(a ID) int {
	br, ok := ix.m.Get(a)
	if !ok {
		return 0
	}
	return br.size
}

// card2 returns the number of triples under (a, b).
func (ix tindex) card2(a, b ID) int {
	br, ok := ix.m.Get(a)
	if !ok {
		return 0
	}
	inner, _ := br.m.Get(b)
	return inner.Len()
}

// keys returns the number of distinct top-level keys.
func (ix tindex) keys() int { return ix.m.Len() }

// with returns the index with (a, b, c) present; added reports whether the
// triple was new. Structure owned by the current waiter (see marks) is
// updated in place; everything else is path-copied and left unchanged. A
// branch is owned when its middle map is.
func (ix tindex) with(a, b, c ID, mk *marks) (tindex, bool) {
	br, ok := ix.m.Get(a)
	var bm *pmap[*pmap[unit]]
	if ok {
		bm = br.m
	}
	inner, _ := bm.Get(b)
	ni, added := inner.with(c, unit{}, mk)
	if !added {
		return ix, false
	}
	nbm := bm
	if ni != inner {
		nbm, _ = bm.with(b, ni, mk)
	}
	if ok && bm.owned() {
		br.size++
		return ix, true
	}
	size := 1
	if ok {
		size = br.size + 1
	}
	nm, _ := ix.m.with(a, &l2{m: nbm, size: size}, mk)
	return tindex{m: nm}, true
}

// without returns the index with (a, b, c) removed; removed reports whether
// it was present. Empty branches are dropped so key counts stay exact.
func (ix tindex) without(a, b, c ID, mk *marks) (tindex, bool) {
	br, ok := ix.m.Get(a)
	if !ok {
		return ix, false
	}
	inner, ok := br.m.Get(b)
	if !ok {
		return ix, false
	}
	ni, removed := inner.without(c, mk)
	if !removed {
		return ix, false
	}
	if br.size == 1 {
		nm, _ := ix.m.without(a, mk)
		return tindex{m: nm}, true
	}
	owned := br.m.owned()
	nbm := br.m
	switch {
	case ni == nil:
		nbm, _ = br.m.without(b, mk)
	case ni != inner:
		nbm, _ = br.m.with(b, ni, mk)
	}
	if owned {
		br.size--
		return ix, true
	}
	nm, _ := ix.m.with(a, &l2{m: nbm, size: br.size - 1}, mk)
	return tindex{m: nm}, true
}
