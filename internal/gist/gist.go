// Package gist implements the paper's closing vision (Section 7): "a
// generic extendible tree-based access method ... could be integrated into
// the kernel of the DBMS. Such a generic access method would support the
// broad class of tree-based access methods by providing a simple, high-level
// extension interface that isolates the primitive operations required to
// construct new access methods" — the Generalized Search Tree of
// Hellerstein, Naughton, and Pfeffer [HNP95], as generalized by Aoki
// [AOK98].
//
// The tree structure, node layout, insertion, splitting, deletion, and
// scanning are generic; a KeyClass supplies the four famous extension
// methods (Consistent, Union, Penalty, PickSplit) plus key serialization.
// Package gist ships two key classes: a one-dimensional interval class
// (intervals.go) and the GR-tree's bitemporal regions (grkey.go) — showing
// that the paper's index really is expressible as "specially designed
// operator classes" over the generic method.
package gist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nodestore"
)

// Query is an opclass-specific search predicate, interpreted only by the
// key class's Consistent method.
type Query any

// KeyClass is the GiST extension interface: the primitive operations a new
// access method must supply [HNP95].
type KeyClass interface {
	// Name identifies the class (recorded in the tree metadata so an index
	// cannot be opened under the wrong class).
	Name() string
	// Consistent reports whether the subtree (or leaf entry) behind key can
	// contain entries satisfying the query. False negatives lose results;
	// false positives only cost I/O.
	Consistent(key []byte, q Query, leaf bool) (bool, error)
	// Union returns a key bounding all the given keys.
	Union(keys [][]byte) ([]byte, error)
	// Penalty estimates the cost of inserting the new key under an existing
	// subtree key (insertion descends along minimum penalty).
	Penalty(existing, newKey []byte) (float64, error)
	// PickSplit partitions the keys of an overfull node into two groups,
	// given as index lists; both must be non-empty.
	PickSplit(keys [][]byte) (left, right []int, err error)
	// Equal reports exact leaf-key equality (deletion locates entries with
	// it).
	Equal(a, b []byte) bool
	// MaxKeySize bounds the serialized key size in bytes.
	MaxKeySize() int
}

// Payload is the opaque value carried by leaf entries (rowids).
type Payload uint64

// Entry is a node entry: a serialized key plus a child node id or payload.
type Entry struct {
	Key []byte
	Ref uint64
}

// Node layout:
//
//	[0:4)  magic "GIST"
//	[4:5)  flags (bit0 leaf)
//	[5:6)  level
//	[6:8)  entry count
//	[8:16) reserved
//	entries: keyLen(2) | key | ref(8)
const (
	nodeMagic  = 0x47495354
	nodeHeader = 16
)

type node struct {
	id      nodestore.NodeID
	leaf    bool
	level   int
	entries []Entry
}

func (n *node) encode(buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	binary.BigEndian.PutUint32(buf[0:4], nodeMagic)
	if n.leaf {
		buf[4] = 1
	}
	buf[5] = byte(n.level)
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(n.entries)))
	off := nodeHeader
	for _, e := range n.entries {
		if off+2+len(e.Key)+8 > len(buf) {
			return fmt.Errorf("gist: node %d overflows its page", n.id)
		}
		binary.BigEndian.PutUint16(buf[off:], uint16(len(e.Key)))
		off += 2
		copy(buf[off:], e.Key)
		off += len(e.Key)
		binary.BigEndian.PutUint64(buf[off:], e.Ref)
		off += 8
	}
	return nil
}

// decodeNode trusts nothing on the page: count and every key length come
// from disk, so each is checked against the page before it bounds a slice.
// Keys are copied out: the page is the store's, and is rewritten in place.
func decodeNode(id nodestore.NodeID, buf []byte) (*node, error) {
	if len(buf) < nodeHeader || binary.BigEndian.Uint32(buf[0:4]) != nodeMagic {
		return nil, fmt.Errorf("gist: node %d has bad magic", id)
	}
	n := &node{id: id, leaf: buf[4]&1 != 0, level: int(buf[5])}
	count := int(binary.BigEndian.Uint16(buf[6:8]))
	if nodeHeader+count*(2+8) > len(buf) {
		return nil, fmt.Errorf("gist: node %d has impossible count %d", id, count)
	}
	off := nodeHeader
	for i := 0; i < count; i++ {
		if off+2 > len(buf) || off+2+int(binary.BigEndian.Uint16(buf[off:]))+8 > len(buf) {
			return nil, fmt.Errorf("gist: node %d entry %d overruns the page", id, i)
		}
		kl := int(binary.BigEndian.Uint16(buf[off:]))
		off += 2
		key := append([]byte(nil), buf[off:off+kl]...)
		off += kl
		ref := binary.BigEndian.Uint64(buf[off:])
		off += 8
		n.entries = append(n.entries, Entry{Key: key, Ref: ref})
	}
	return n, nil
}

// Tree is a generalized search tree over a node store.
type Tree struct {
	store  nodestore.Store
	kc     KeyClass
	root   nodestore.NodeID
	height int
	size   int
	// maxEntries is derived from the key class's MaxKeySize so a full node
	// always fits one page.
	maxEntries int
	epoch      uint64
}

const metaMagic = 0x47535452

// Create initialises an empty tree for the key class.
func Create(store nodestore.Store, kc KeyClass) (*Tree, error) {
	t, err := newTree(store, kc)
	if err != nil {
		return nil, err
	}
	id, err := store.Alloc()
	if err != nil {
		return nil, err
	}
	t.root = id
	t.height = 1
	if err := t.writeNode(&node{id: id, leaf: true}); err != nil {
		return nil, err
	}
	return t, t.saveMeta()
}

// Open loads an existing tree; the key class must match the one it was
// created with.
func Open(store nodestore.Store, kc KeyClass) (*Tree, error) {
	t, err := newTree(store, kc)
	if err != nil {
		return nil, err
	}
	meta, err := store.Meta()
	if err != nil {
		return nil, err
	}
	if len(meta) < 33 || binary.BigEndian.Uint32(meta[0:4]) != metaMagic {
		return nil, fmt.Errorf("gist: store holds no GiST")
	}
	t.root = nodestore.NodeID(binary.BigEndian.Uint64(meta[4:12]))
	t.height = int(binary.BigEndian.Uint64(meta[12:20]))
	t.size = int(binary.BigEndian.Uint64(meta[20:28]))
	nameLen := int(meta[32])
	if 33+nameLen > len(meta) || string(meta[33:33+nameLen]) != kc.Name() {
		return nil, fmt.Errorf("gist: index was created with key class %q, not %q",
			string(meta[33:33+nameLen]), kc.Name())
	}
	return t, nil
}

func newTree(store nodestore.Store, kc KeyClass) (*Tree, error) {
	perEntry := 2 + kc.MaxKeySize() + 8
	max := (nodestore.NodeSize - nodeHeader) / perEntry
	if max < 4 {
		return nil, fmt.Errorf("gist: key class %s keys too large (%d bytes/page entry)", kc.Name(), perEntry)
	}
	return &Tree{store: store, kc: kc, maxEntries: max}, nil
}

func (t *Tree) saveMeta() error {
	name := t.kc.Name()
	meta := make([]byte, 33+len(name))
	binary.BigEndian.PutUint32(meta[0:4], metaMagic)
	binary.BigEndian.PutUint64(meta[4:12], uint64(t.root))
	binary.BigEndian.PutUint64(meta[12:20], uint64(t.height))
	binary.BigEndian.PutUint64(meta[20:28], uint64(t.size))
	meta[32] = byte(len(name))
	copy(meta[33:], name)
	return t.store.SetMeta(meta)
}

// Size returns the number of leaf entries.
func (t *Tree) Size() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// MaxEntries returns the per-node fanout (derived from the key size).
func (t *Tree) MaxEntries() int { return t.maxEntries }

// readNode decodes node id from its page in place; decodeNode copies every
// key out, so the node outlives the page.
func (t *Tree) readNode(id nodestore.NodeID) (*node, error) {
	var n *node
	err := t.store.View(id, func(page []byte) (err error) {
		n, err = decodeNode(id, page)
		return err
	})
	return n, err
}

func (t *Tree) writeNode(n *node) error {
	buf := make([]byte, nodestore.NodeSize)
	if err := n.encode(buf); err != nil {
		return err
	}
	return t.store.Write(n.id, buf)
}

func keysOf(entries []Entry) [][]byte {
	out := make([][]byte, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

// Insert adds a leaf key with its payload.
func (t *Tree) Insert(key []byte, p Payload) error {
	if len(key) > t.kc.MaxKeySize() {
		return fmt.Errorf("gist: key of %d bytes exceeds the class maximum %d", len(key), t.kc.MaxKeySize())
	}
	if err := t.insertAtLevel(Entry{Key: key, Ref: uint64(p)}, 0); err != nil {
		return err
	}
	t.size++
	return t.saveMeta()
}

type pathStep struct {
	n   *node
	idx int
}

func (t *Tree) insertAtLevel(e Entry, level int) error {
	var path []pathStep
	n, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	for n.level > level {
		idx, err := t.choose(n, e.Key)
		if err != nil {
			return err
		}
		path = append(path, pathStep{n, idx})
		child, err := t.readNode(n.entries[idx].Ref2())
		if err != nil {
			return err
		}
		n = child
	}
	n.entries = append(n.entries, e)
	for {
		if len(n.entries) <= t.maxEntries {
			if err := t.writeNode(n); err != nil {
				return err
			}
			return t.adjust(path, n)
		}
		left, right, err := t.split(n)
		if err != nil {
			return err
		}
		t.epoch++
		if n.id == t.root {
			return t.growRoot(left, right)
		}
		parent := path[len(path)-1].n
		idx := path[len(path)-1].idx
		path = path[:len(path)-1]
		lu, err := t.kc.Union(keysOf(left.entries))
		if err != nil {
			return err
		}
		ru, err := t.kc.Union(keysOf(right.entries))
		if err != nil {
			return err
		}
		parent.entries[idx] = Entry{Key: lu, Ref: uint64(left.id)}
		parent.entries = append(parent.entries, Entry{Key: ru, Ref: uint64(right.id)})
		n = parent
	}
}

// Ref2 returns the entry's child node id.
func (e Entry) Ref2() nodestore.NodeID { return nodestore.NodeID(e.Ref) }

// Payload returns the entry's payload.
func (e Entry) Payload() Payload { return Payload(e.Ref) }

func (t *Tree) choose(n *node, key []byte) (int, error) {
	best, bestPen := 0, 0.0
	for i, e := range n.entries {
		pen, err := t.kc.Penalty(e.Key, key)
		if err != nil {
			return 0, err
		}
		if i == 0 || pen < bestPen {
			best, bestPen = i, pen
		}
	}
	if len(n.entries) == 0 {
		return 0, fmt.Errorf("gist: internal node %d is empty", n.id)
	}
	return best, nil
}

func (t *Tree) adjust(path []pathStep, n *node) error {
	child := n
	for i := len(path) - 1; i >= 0; i-- {
		step := path[i]
		u, err := t.kc.Union(keysOf(child.entries))
		if err != nil {
			return err
		}
		step.n.entries[step.idx] = Entry{Key: u, Ref: uint64(child.id)}
		if err := t.writeNode(step.n); err != nil {
			return err
		}
		child = step.n
	}
	return nil
}

func (t *Tree) split(n *node) (*node, *node, error) {
	li, ri, err := t.kc.PickSplit(keysOf(n.entries))
	if err != nil {
		return nil, nil, err
	}
	if len(li) == 0 || len(ri) == 0 || len(li)+len(ri) != len(n.entries) {
		return nil, nil, fmt.Errorf("gist: key class %s produced an invalid split (%d/%d of %d)",
			t.kc.Name(), len(li), len(ri), len(n.entries))
	}
	le := make([]Entry, 0, len(li))
	re := make([]Entry, 0, len(ri))
	for _, ix := range li {
		le = append(le, n.entries[ix])
	}
	for _, ix := range ri {
		re = append(re, n.entries[ix])
	}
	left := &node{id: n.id, leaf: n.leaf, level: n.level, entries: le}
	rid, err := t.store.Alloc()
	if err != nil {
		return nil, nil, err
	}
	right := &node{id: rid, leaf: n.leaf, level: n.level, entries: re}
	if err := t.writeNode(left); err != nil {
		return nil, nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

func (t *Tree) growRoot(left, right *node) error {
	id, err := t.store.Alloc()
	if err != nil {
		return err
	}
	lu, err := t.kc.Union(keysOf(left.entries))
	if err != nil {
		return err
	}
	ru, err := t.kc.Union(keysOf(right.entries))
	if err != nil {
		return err
	}
	root := &node{id: id, level: left.level + 1, entries: []Entry{
		{Key: lu, Ref: uint64(left.id)},
		{Key: ru, Ref: uint64(right.id)},
	}}
	if err := t.writeNode(root); err != nil {
		return err
	}
	t.root = id
	t.height++
	return t.saveMeta()
}

// Search returns the payloads of all leaf entries consistent with the query.
func (t *Tree) Search(q Query) ([]Payload, error) {
	var out []Payload
	err := t.walkConsistent(q, func(e Entry) (bool, error) {
		out = append(out, e.Payload())
		return true, nil
	})
	return out, err
}

func (t *Tree) walkConsistent(q Query, fn func(Entry) (bool, error)) error {
	stack := []nodestore.NodeID{t.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for _, e := range n.entries {
			ok, err := t.kc.Consistent(e.Key, q, n.leaf)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if n.leaf {
				cont, err := fn(e)
				if err != nil {
					return err
				}
				if !cont {
					return nil
				}
			} else {
				stack = append(stack, e.Ref2())
			}
		}
	}
	return nil
}

// Delete removes the leaf entry with exactly this key and payload. Empty
// nodes are unlinked (GiST deletion without re-balancing, per the simple
// variant of [HNP95]).
func (t *Tree) Delete(key []byte, p Payload) (bool, error) {
	removed, err := t.deleteFrom(t.root, key, p)
	if err != nil || !removed {
		return removed, err
	}
	t.size--
	// Shrink an internal root with one child.
	for {
		root, err := t.readNode(t.root)
		if err != nil {
			return true, err
		}
		if root.level == 0 || len(root.entries) != 1 {
			break
		}
		old := root.id
		t.root = root.entries[0].Ref2()
		t.height--
		if err := t.store.Free(old); err != nil {
			return true, err
		}
		t.epoch++
	}
	return true, t.saveMeta()
}

func (t *Tree) deleteFrom(id nodestore.NodeID, key []byte, p Payload) (bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return false, err
	}
	if n.leaf {
		for i, e := range n.entries {
			if e.Ref == uint64(p) && t.kc.Equal(e.Key, key) {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				return true, t.writeNode(n)
			}
		}
		return false, nil
	}
	for i, e := range n.entries {
		// Descend only where the key could live: use an equality-ish check
		// through Consistent with the key-as-query convention (the key
		// class interprets a raw key query as containment).
		ok, err := t.kc.Consistent(e.Key, KeyQuery(key), false)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		removed, err := t.deleteFrom(e.Ref2(), key, p)
		if err != nil {
			return false, err
		}
		if removed {
			child, err := t.readNode(e.Ref2())
			if err != nil {
				return false, err
			}
			if len(child.entries) == 0 {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				if err := t.store.Free(child.id); err != nil {
					return false, err
				}
				t.epoch++
			} else {
				u, err := t.kc.Union(keysOf(child.entries))
				if err != nil {
					return false, err
				}
				n.entries[i] = Entry{Key: u, Ref: e.Ref}
			}
			return true, t.writeNode(n)
		}
	}
	return false, nil
}

// KeyQuery wraps a raw leaf key as a query meaning "subtrees that could
// contain exactly this key" — every key class must handle it in Consistent.
type KeyQuery []byte

// Check validates the structural invariants: levels, fanout, and that every
// child key is consistent-reachable under its parent union.
func (t *Tree) Check() error {
	count := 0
	var walk func(id nodestore.NodeID, level int, isRoot bool) error
	walk = func(id nodestore.NodeID, level int, isRoot bool) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.level != level {
			return fmt.Errorf("gist: node %d level %d, expected %d", id, n.level, level)
		}
		if len(n.entries) > t.maxEntries {
			return fmt.Errorf("gist: node %d overfull", id)
		}
		if !isRoot && len(n.entries) == 0 {
			return fmt.Errorf("gist: node %d empty", id)
		}
		if n.leaf {
			count += len(n.entries)
			return nil
		}
		for _, e := range n.entries {
			child, err := t.readNode(e.Ref2())
			if err != nil {
				return err
			}
			for _, ce := range child.entries {
				ok, err := t.kc.Consistent(e.Key, KeyQuery(ce.Key), false)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("gist: child key escapes parent union in node %d", e.Ref2())
				}
			}
			if err := walk(e.Ref2(), level-1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.height-1, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("gist: leaf count %d != size %d", count, t.size)
	}
	return nil
}
