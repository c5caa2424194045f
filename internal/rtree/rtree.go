// Package rtree is the R*-tree kernel under the GR-tree (internal/grtree),
// the R*-tree (internal/rstar) and the GiST (internal/gist): the paper builds
// the GR-tree as an R*-tree variant and closes (Section 7) by proposing one
// generic extensible tree specialised by operator classes. The kernel owns
// everything the trees share — node page framing and latching, the meta page,
// the R* insert skeleton (descend, overflow → forced reinsertion once per
// level → split → grow root), deletion with the three Section 5.5 condense
// policies, the one latch-crabbing cursor (serial and epoch-restarting, or a
// worker of a root-fan-out parallel scan), STR bulk loading, covered-subtree
// aggregation, per-level statistics and the structural invariant check — and
// is generic over the bound type B stored in node entries.
//
// What differs between the trees is supplied per operation as a key class: a
// Format (entry codec and magic numbers), Keys (bounding, containment, the
// check's Covers, and the geometry the R* heuristics score) and a Matcher
// (the leaf and internal qualification tests over the strategy operators Op,
// and optionally Covered). The kernel has no notion of time: the GR-tree
// builds its Keys and Matcher per call from the current time.
package rtree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nodestore"
)

// Payload is the opaque value carried by a leaf entry: the rowid of the
// indexed tuple ("a pointer to the actual bitemporal data stored in the
// database", Section 3).
type Payload uint64

// Entry is one node entry: a bound plus either a child-node pointer
// (internal nodes) or a payload (leaves).
type Entry[B any] struct {
	Bound B
	Ref   uint64 // child NodeID or Payload
}

// Child returns the entry's child node id (internal entries).
func (e Entry[B]) Child() nodestore.NodeID { return nodestore.NodeID(e.Ref) }

// Payload returns the entry's payload (leaf entries).
func (e Entry[B]) Payload() Payload { return Payload(e.Ref) }

// Shape is the resolved geometry the R* heuristics score: a key class maps
// each stored bound to one (Keys.Resolve) once per decision, so a bound whose
// geometry depends on the current time is not re-resolved per comparison.
type Shape[S any] interface {
	Area() float64
	Margin() float64
	IntersectionArea(S) float64
}

// Keys is the geometric half of a key class, used by the paths that build
// and repair the tree.
type Keys[B any, S Shape[S]] interface {
	// Bound returns the minimum bound of a node's entries.
	Bound(es []Entry[B]) B
	// Union returns the minimum bound of two bounds.
	Union(a, b B) B
	// Contains reports whether outer contains inner (the descent test of a
	// deletion looking for its leaf).
	Contains(outer, inner B) bool
	// Covers reports whether a parent bound covers a child bound: the
	// invariant Check holds every entry to. It may be stricter than
	// Contains, e.g. containment now and at every later time.
	Covers(parent, child B) bool
	// Resolve returns the shape a bound is scored by.
	Resolve(b B) S
	// Centre is the point forced reinsertion measures distances from.
	Centre(s S) (x, y float64)
	// PackKeys appends to dst the coordinates STR packing sorts by, most
	// significant first; every shape of a key class has the same number.
	PackKeys(dst []float64, s S) []float64
	// SplitKeys returns the four split sort keys: low and high on the first
	// axis, then low and high on the second.
	SplitKeys(s S) [4]int64
}

// Matcher is a search qualification: Leaf is the exact strategy test on a
// data bound; Internal is the pruning test on a bounding entry and must hold
// whenever any descendant leaf could match. A matcher may also implement
// Covered(b B) bool, true only when every leaf under the bounding entry b
// matches; AggCount then counts such a subtree without testing its leaves.
type Matcher[B any] interface {
	Leaf(b B) bool
	Internal(b B) bool
}

// Op is a strategy operator: the four strategy functions of the operator
// classes (Section 5.2). Each key class decides what they mean for its
// bounds.
type Op int

const (
	// OpOverlaps matches bounds sharing a cell with the query.
	OpOverlaps Op = iota
	// OpEqual matches bounds equal to the query.
	OpEqual
	// OpContains matches bounds containing the query.
	OpContains
	// OpContainedIn matches bounds inside the query.
	OpContainedIn
)

// String returns the strategy function's SQL name.
func (o Op) String() string {
	if o < OpOverlaps || o > OpContainedIn {
		return "?"
	}
	return [...]string{"Overlaps", "Equal", "Contains", "ContainedIn"}[o]
}

// Format is the on-page half of a key class. A node page is
//
//	[0:4)  NodeMagic
//	[4:5)  flags (bit0: leaf)
//	[5:6)  level (0 = leaf)
//	[6:8)  entry count
//	[8:16) reserved
//	entries at 16, EntrySize bytes each
//
// and the meta blob is MetaMagic, 4 pad, root id, height, size. The kernel
// frames and validates the page; the key class codes the entries, a node at
// a time so that the loop over them is its own.
type Format[B any] struct {
	Name                 string // error-message prefix, e.g. "grtree"
	NodeMagic, MetaMagic uint32
	EntrySize            int
	// Put encodes entries into buf, which is zeroed and exactly long enough;
	// leaf says whether they are a leaf's, which a class may code apart
	// from bounding entries.
	Put func(buf []byte, entries []Entry[B], leaf bool)
	// Get decodes len(entries) entries from buf, which is long enough.
	Get func(buf []byte, entries []Entry[B], leaf bool)
}

// HeaderSize is the length of the node page header.
const HeaderSize = 16

// Capacity is the maximum number of entries per node (one node per page,
// Section 3).
func (f *Format[B]) Capacity() int { return (nodestore.NodeSize - HeaderSize) / f.EntrySize }

// DeletePolicy selects the Section 5.5 deletion strategy.
type DeletePolicy int

const (
	// RestartOnCondense is the paper's compromise: scanning restarts only
	// when the tree is actually condensed.
	RestartOnCondense DeletePolicy = iota
	// RestartAlways conservatively restarts after every deletion.
	RestartAlways
	// NoCondense never re-inserts: underfull nodes are tolerated (empty
	// nodes are still unlinked), trading search performance for scan
	// availability.
	NoCondense
)

func (p DeletePolicy) String() string {
	switch p {
	case RestartAlways:
		return "restart-always"
	case NoCondense:
		return "no-condense"
	default:
		return "restart-on-condense"
	}
}

// Config holds the R* parameters.
type Config struct {
	// MaxEntries caps node fanout (default and maximum: the format's
	// Capacity). Tests use small values to force deep trees.
	MaxEntries int
	// MinFillPct is the underflow threshold in percent (default 40).
	MinFillPct int
	// ReinsertPct is the forced-reinsertion fraction in percent on first
	// overflow per level (default 30, 0 disables).
	ReinsertPct int
	// DeletePolicy selects the Section 5.5 strategy.
	DeletePolicy DeletePolicy
}

func (c *Config) normalise(capacity int) {
	if c.MaxEntries <= 0 || c.MaxEntries > capacity {
		c.MaxEntries = capacity
	}
	if c.MaxEntries < 4 {
		c.MaxEntries = 4
	}
	if c.MinFillPct <= 0 || c.MinFillPct > 50 {
		c.MinFillPct = 40
	}
	if c.ReinsertPct < 0 || c.ReinsertPct > 50 {
		c.ReinsertPct = 30
	}
}

// Tree is an R*-tree over a node store. Mutating operations are not safe for
// concurrent use; the engine serialises access through the sbspace
// large-object locks (Section 5.3), exactly as the paper's DataBlade had to.
// Read-only traversal is additionally protected by a per-node latch table so
// cursors, a parallel scan's workers among them, may descend concurrently.
type Tree[B comparable] struct {
	store   nodestore.Store
	f       *Format[B]
	cfg     Config
	latches *nodestore.LatchTable
	root    nodestore.NodeID
	height  int // number of levels; a lone leaf root has height 1
	size    int // live leaf entries
	epoch   uint64
}

// Create initialises a new, empty tree in the store.
func Create[B comparable](store nodestore.Store, f *Format[B], cfg Config) (*Tree[B], error) {
	cfg.normalise(f.Capacity())
	t := &Tree[B]{store: store, f: f, cfg: cfg, latches: nodestore.NewLatchTable(), height: 1}
	root, err := store.Alloc()
	if err != nil {
		return nil, err
	}
	t.root = root
	if err := t.writeNode(&node[B]{id: root}, make([]byte, nodestore.NodeSize)); err != nil {
		return nil, err
	}
	return t, t.saveMeta()
}

// Open loads an existing tree from the store.
func Open[B comparable](store nodestore.Store, f *Format[B], cfg Config) (*Tree[B], error) {
	cfg.normalise(f.Capacity())
	meta, err := store.Meta()
	if err != nil {
		return nil, err
	}
	if len(meta) < 32 || binary.BigEndian.Uint32(meta[0:4]) != f.MetaMagic {
		return nil, fmt.Errorf("%s: store holds no tree of this kind", f.Name)
	}
	return &Tree[B]{
		store: store, f: f, cfg: cfg, latches: nodestore.NewLatchTable(),
		root:   nodestore.NodeID(binary.BigEndian.Uint64(meta[8:16])),
		height: int(binary.BigEndian.Uint64(meta[16:24])),
		size:   int(binary.BigEndian.Uint64(meta[24:32])),
	}, nil
}

func (t *Tree[B]) saveMeta() error {
	meta := make([]byte, 32)
	binary.BigEndian.PutUint32(meta[0:4], t.f.MetaMagic)
	binary.BigEndian.PutUint64(meta[8:16], uint64(t.root))
	binary.BigEndian.PutUint64(meta[16:24], uint64(t.height))
	binary.BigEndian.PutUint64(meta[24:32], uint64(t.size))
	return t.store.SetMeta(meta)
}

// Size returns the number of live leaf entries.
func (t *Tree[B]) Size() int { return t.size }

// Height returns the number of levels.
func (t *Tree[B]) Height() int { return t.height }

// Store exposes the underlying node store (statistics).
func (t *Tree[B]) Store() nodestore.Store { return t.store }

// Config returns the tree's normalised R* parameters.
func (t *Tree[B]) Config() Config { return t.cfg }

func (t *Tree[B]) minFill() int {
	m := t.cfg.MaxEntries * t.cfg.MinFillPct / 100
	if m < 1 {
		m = 1
	}
	return m
}

func (t *Tree[B]) errorf(format string, args ...any) error {
	return fmt.Errorf(t.f.Name+": "+format, args...)
}

type node[B any] struct {
	id      nodestore.NodeID
	level   int // 0 = leaf
	entries []Entry[B]
}

func (t *Tree[B]) encode(n *node[B], buf []byte) {
	binary.BigEndian.PutUint32(buf[0:4], t.f.NodeMagic)
	if n.level == 0 {
		buf[4] = 1
	}
	buf[5] = byte(n.level)
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(n.entries)))
	t.f.Put(buf[HeaderSize:HeaderSize+len(n.entries)*t.f.EntrySize], n.entries, n.level == 0)
}

// decode is the only reader of node pages: it decodes page's entries into
// buf's storage (a new slice with room for MaxEntries when buf is too short)
// and returns the node's level and entries. A page that is foreign,
// truncated or corrupt is an error naming the node, never a panic.
func (t *Tree[B]) decode(id nodestore.NodeID, page []byte, buf []Entry[B]) (int, []Entry[B], error) {
	if len(page) < HeaderSize || binary.BigEndian.Uint32(page[0:4]) != t.f.NodeMagic {
		return 0, buf, t.errorf("node %d has bad magic", id)
	}
	level := int(page[5])
	if leaf := page[4]&1 != 0; leaf != (level == 0) {
		return 0, buf, t.errorf("node %d leaf flag inconsistent with level %d", id, level)
	}
	count := int(binary.BigEndian.Uint16(page[6:8]))
	if count > t.f.Capacity() || HeaderSize+count*t.f.EntrySize > len(page) {
		return 0, buf, t.errorf("node %d has impossible count %d", id, count)
	}
	if cap(buf) < count {
		buf = make([]Entry[B], max(count, t.cfg.MaxEntries))
	}
	entries := buf[:count]
	t.f.Get(page[HeaderSize:], entries, level == 0)
	return level, entries, nil
}

// readNode decodes node id into a node its caller owns: the mutators edit
// and rewrite what they read.
func (t *Tree[B]) readNode(id nodestore.NodeID) (*node[B], error) {
	n := &node[B]{id: id}
	t.latches.RLock(id)
	err := t.store.View(id, func(page []byte) (err error) {
		n.level, n.entries, err = t.decode(id, page, nil)
		return err
	})
	t.latches.RUnlock(id)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// reader decodes the nodes of one traversal into an entry buffer per depth.
// A depth-first traversal finishes with the node at depth d before it reads
// the next one there, so each read may overwrite its depth's buffer, and a
// node visit costs one pinned-page decode and no allocation once the buffers
// have grown.
type reader[B comparable] struct {
	t    *Tree[B]
	bufs [][]Entry[B]
	// The node load is decoding, for decodeFn, which is built once so that
	// passing it to Store.View allocates nothing.
	id       nodestore.NodeID
	depth    int
	level    int
	decodeFn func(page []byte) error
}

func (t *Tree[B]) newReader() *reader[B] {
	r := &reader[B]{t: t}
	r.decodeFn = func(page []byte) (err error) {
		r.level, r.bufs[r.depth], err = t.decode(r.id, page, r.bufs[r.depth])
		return err
	}
	return r
}

// load decodes node id into the buffer of depth; the caller holds the node's
// read latch. The entries are valid until the next load at that depth.
func (r *reader[B]) load(id nodestore.NodeID, depth int) (level int, entries []Entry[B], err error) {
	for len(r.bufs) <= depth {
		r.bufs = append(r.bufs, nil)
	}
	r.id, r.depth = id, depth
	err = r.t.store.View(id, r.decodeFn)
	return r.level, r.bufs[depth], err
}

// read is load under the node's read latch.
func (r *reader[B]) read(id nodestore.NodeID, depth int) (int, []Entry[B], error) {
	r.t.latches.RLock(id)
	defer r.t.latches.RUnlock(id)
	return r.load(id, depth)
}

// writeNode encodes n into page, zeroed first, and writes it. Both stores
// copy what they are given, so the caller may reuse page.
func (t *Tree[B]) writeNode(n *node[B], page []byte) error {
	clear(page)
	t.encode(n, page)
	t.latches.Lock(n.id)
	err := t.store.Write(n.id, page)
	t.latches.Unlock(n.id)
	return err
}

// Walk visits every node in pre-order (a node, then each child's subtree in
// entry order). It is neither pruned nor epoch-checked: it serves whole-tree
// reports (statistics, dumps), not answers. The entries passed to fn are
// valid only during the call.
func (t *Tree[B]) Walk(fn func(id nodestore.NodeID, level int, entries []Entry[B]) error) error {
	return t.newReader().walk(t.root, 0, fn)
}

// walk visits the subtree at id, which sits at depth, in pre-order.
func (r *reader[B]) walk(id nodestore.NodeID, depth int, fn func(nodestore.NodeID, int, []Entry[B]) error) error {
	level, entries, err := r.read(id, depth)
	if err != nil {
		return err
	}
	if err := fn(id, level, entries); err != nil || level == 0 {
		return err
	}
	for _, e := range entries {
		if err := r.walk(e.Child(), depth+1, fn); err != nil {
			return err
		}
	}
	return nil
}

// LevelStats aggregates one tree level (level 0 = leaves).
type LevelStats struct {
	Level   int
	Nodes   int
	Entries int
	// Area is the total area of the level's node bounds and Overlap the
	// total pairwise intersection area between them — the goodness measures
	// of Section 3.
	Area    float64
	Overlap float64
}

// Levels walks the tree and reports structure and goodness per level, leaves
// first, on shapes resolved by resolve. It also returns those shapes:
// shapes[0] are the data entries, shapes[l+1] the bounds of the level-l nodes
// — as their parents store them, except the root's, which bound computes.
func Levels[B comparable, S Shape[S]](t *Tree[B], bound func([]Entry[B]) B, resolve func(B) S) ([]LevelStats, [][]S, error) {
	levels := make([]LevelStats, t.height)
	shapes := make([][]S, t.height+1)
	err := t.Walk(func(id nodestore.NodeID, level int, entries []Entry[B]) error {
		if level >= t.height {
			return t.errorf("node %d at level %d, above the root", id, level)
		}
		if level == t.height-1 {
			shapes[t.height] = []S{resolve(bound(entries))}
		}
		levels[level].Nodes++
		levels[level].Entries += len(entries)
		for _, e := range entries {
			shapes[level] = append(shapes[level], resolve(e.Bound))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for l := range levels {
		ls, bounds := &levels[l], shapes[l+1]
		ls.Level = l
		for i, b := range bounds {
			ls.Area += b.Area()
			for _, o := range bounds[i+1:] {
				ls.Overlap += b.IntersectionArea(o)
			}
		}
	}
	return levels, shapes, nil
}

// Check validates the structural invariants (am_check): every entry is
// covered by its parent entry — covers decides what that means for the key
// class, e.g. now and at all later times — node fills respect the minimum
// (policy permitting) and the maximum, levels are consistent, and the leaf
// count matches the recorded size. It returns a descriptive error on the
// first violation.
func (t *Tree[B]) Check(covers func(parent, child B) bool) error {
	count := 0
	var check func(id nodestore.NodeID, level int, parent *B) error
	check = func(id nodestore.NodeID, level int, parent *B) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.level != level {
			return t.errorf("node %d at level %d, expected %d", id, n.level, level)
		}
		if parent != nil && t.cfg.DeletePolicy != NoCondense && len(n.entries) < t.minFill() {
			return t.errorf("node %d underfull (%d < %d)", id, len(n.entries), t.minFill())
		}
		if len(n.entries) > t.cfg.MaxEntries {
			return t.errorf("node %d overfull (%d > %d)", id, len(n.entries), t.cfg.MaxEntries)
		}
		for i := range n.entries {
			e := &n.entries[i]
			if parent != nil && !covers(*parent, e.Bound) {
				return t.errorf("node %d entry %v escapes parent bound %v", id, e.Bound, *parent)
			}
			if level == 0 {
				count++
			} else if err := check(e.Child(), level-1, &e.Bound); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(t.root, t.height-1, nil); err != nil {
		return err
	}
	if count != t.size {
		return t.errorf("leaf count %d != recorded size %d", count, t.size)
	}
	return nil
}
