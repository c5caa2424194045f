// Package gist implements the paper's closing vision (Section 7): "a
// generic extendible tree-based access method ... could be integrated into
// the kernel of the DBMS. Such a generic access method would support the
// broad class of tree-based access methods by providing a simple, high-level
// extension interface that isolates the primitive operations required to
// construct new access methods" — the Generalized Search Tree of
// Hellerstein, Naughton, and Pfeffer [HNP95], as generalized by Aoki
// [AOK98].
//
// The tree is internal/rtree, the kernel under the GR-tree and the R*-tree:
// this package is a key class over it and a façade. A KeyClass supplies the
// extension methods — Consistent and Union as in [HNP95], Covers for the
// descent of a deletion, and Box, the 2-D integer box the kernel's R*
// ChooseSubtree, split, reinsertion and STR packing score a key by in place
// of Penalty and PickSplit. Keys have a fixed size per class and are stored
// as Go strings, so decoded keys are immutable copies that outlive their page.
// Package gist ships two key classes: a one-dimensional interval class
// (intervals.go) and the GR-tree's bitemporal regions (grkey.go) — showing
// that the paper's index really is expressible as "specially designed
// operator classes" over the generic method.
package gist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/rtree"
)

// Query is an opclass-specific search predicate, interpreted only by the
// Consistent method of the key class Class names. A query for another class
// is refused when its matcher is built.
type Query interface{ Class() string }

// KeyClass is the GiST extension interface: the primitive operations a new
// access method must supply [HNP95]. Every key the tree hands a method has
// KeySize bytes, and every query is one of the class's own.
type KeyClass interface {
	// Name identifies the class (the tree's meta page records it, so an index
	// cannot be opened under the wrong class).
	Name() string
	// KeySize is the serialized size of every key, leaf or bounding.
	KeySize() int
	// Consistent reports whether the subtree (or leaf entry) behind key can
	// contain entries satisfying the query. False negatives lose results;
	// false positives only cost I/O.
	Consistent(key string, q Query, leaf bool) bool
	// Union returns a key bounding all the given keys.
	Union(keys []string) string
	// Covers reports whether every entry under the bounding key outer could
	// hold the key inner (the descent test of a deletion, and the check's
	// parent-child invariant).
	Covers(outer, inner string) bool
	// Box is the 2-D integer box the kernel's R* heuristics score a key by.
	Box(key string) rstar.Rect
}

// The kernel's types, instantiated for serialized keys.
type (
	// Payload is the opaque value carried by leaf entries (rowids).
	Payload = rtree.Payload
	// Entry is a node entry: a key plus a child node id or payload.
	Entry = rtree.Entry[string]
)

// nodeMagic marks a node page of this layout: fixed-size keys, then the ref.
// (The layout before the kernel, with length-prefixed keys, was "GIST"; its
// pages fail the magic check rather than being misread.)
const nodeMagic = 0x4753544B // "GSTK"

// format is the node codec of class kc: each entry is the key's bytes, then
// the 8-byte ref. The meta magic is a hash of the class name.
func format(kc KeyClass) (*rtree.Format[string], error) {
	ks := kc.KeySize()
	h := fnv.New32a()
	h.Write([]byte(kc.Name()))
	f := &rtree.Format[string]{
		Name:      "gist",
		NodeMagic: nodeMagic,
		MetaMagic: h.Sum32(),
		EntrySize: ks + 8,
		Put: func(buf []byte, entries []Entry, _ bool) {
			for _, e := range entries {
				copy(buf, e.Bound)
				binary.BigEndian.PutUint64(buf[ks:], e.Ref)
				buf = buf[ks+8:]
			}
		},
		Get: func(buf []byte, entries []Entry, _ bool) {
			for i := range entries {
				entries[i] = Entry{Bound: string(buf[:ks]), Ref: binary.BigEndian.Uint64(buf[ks:])}
				buf = buf[ks+8:]
			}
		},
	}
	if ks <= 0 || f.Capacity() < 4 {
		return nil, fmt.Errorf("gist: key class %s has unusable %d-byte keys", kc.Name(), ks)
	}
	return f, nil
}

// keys is a key class as the kernel sees it: bounds are unions, shapes are
// boxes.
type keys struct{ kc KeyClass }

func (k keys) Bound(es []Entry) string {
	ks := make([]string, len(es))
	for i, e := range es {
		ks[i] = e.Bound
	}
	return k.kc.Union(ks)
}

func (k keys) Union(a, b string) string { return k.kc.Union([]string{a, b}) }

func (k keys) Contains(outer, inner string) bool { return k.kc.Covers(outer, inner) }

func (k keys) Covers(parent, child string) bool { return k.kc.Covers(parent, child) }

func (k keys) Resolve(b string) rstar.Rect { return k.kc.Box(b) }

func (keys) Centre(r rstar.Rect) (x, y float64) { return rstar.Keys().Centre(r) }

func (keys) PackKeys(dst []float64, r rstar.Rect) []float64 {
	return rstar.Keys().PackKeys(dst, r)
}

func (keys) SplitKeys(r rstar.Rect) [4]int64 { return rstar.Keys().SplitKeys(r) }

// Tree is a generalized search tree over a node store; see rtree.Tree for
// the concurrency contract. Size, Height, Store and Walk are the kernel's.
type Tree struct {
	*rtree.Tree[string]
	kc KeyClass
}

func open(store nodestore.Store, kc KeyClass, load func(nodestore.Store, *rtree.Format[string], rtree.Config) (*rtree.Tree[string], error)) (*Tree, error) {
	f, err := format(kc)
	if err != nil {
		return nil, err
	}
	t, err := load(store, f, rtree.Config{})
	if err != nil {
		return nil, err
	}
	return &Tree{Tree: t, kc: kc}, nil
}

// Create initialises an empty tree for the key class.
func Create(store nodestore.Store, kc KeyClass) (*Tree, error) {
	return open(store, kc, rtree.Create[string])
}

// Open loads an existing tree; the key class must be the one it was created
// with.
func Open(store nodestore.Store, kc KeyClass) (*Tree, error) {
	return open(store, kc, rtree.Open[string])
}

// Keys is the tree's key class as the kernel's Insert, Delete and BulkLoad
// take it.
func (t *Tree) Keys() rtree.Keys[string, rstar.Rect] { return keys{t.kc} }

// CheckKey refuses a key of the wrong size before it enters the tree.
func (t *Tree) CheckKey(key string) error {
	if len(key) != t.kc.KeySize() {
		return fmt.Errorf("gist: %s key has %d bytes, not %d", t.kc.Name(), len(key), t.kc.KeySize())
	}
	return nil
}

// Insert adds a leaf key with its payload.
func (t *Tree) Insert(key string, p Payload) error {
	if err := t.CheckKey(key); err != nil {
		return err
	}
	return rtree.Insert(t.Tree, t.Keys(), Entry{Bound: key, Ref: uint64(p)})
}

// Delete removes the leaf entry with exactly this key and payload.
func (t *Tree) Delete(key string, p Payload) (bool, error) {
	if err := t.CheckKey(key); err != nil {
		return false, err
	}
	removed, _, err := rtree.Delete(t.Tree, t.Keys(), key, p)
	return removed, err
}

// matcher is a query as the kernel's cursors test it.
type matcher struct {
	kc KeyClass
	q  Query
}

func (m matcher) Leaf(key string) bool     { return m.kc.Consistent(key, m.q, true) }
func (m matcher) Internal(key string) bool { return m.kc.Consistent(key, m.q, false) }

// Match returns the kernel matcher for q, refusing a query of another class.
func (t *Tree) Match(q Query) (rtree.Matcher[string], error) {
	if q == nil || q.Class() != t.kc.Name() {
		return nil, fmt.Errorf("gist: %s cannot evaluate %T", t.kc.Name(), q)
	}
	return matcher{t.kc, q}, nil
}

// Search returns the payloads of all leaf entries consistent with the query.
func (t *Tree) Search(q Query) ([]Payload, error) {
	m, err := t.Match(q)
	if err != nil {
		return nil, err
	}
	return t.Tree.Search(m).All()
}

// Check validates the structural invariants: levels, fill, and that every
// child key is covered by its parent's union.
func (t *Tree) Check() error { return t.Tree.Check(t.kc.Covers) }
