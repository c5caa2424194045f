package grtree

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// LeafMatch and InternalMatch are the reference evaluation of a predicate at
// ct: LeafMatch is the exact strategy test on a data region, InternalMatch
// the pruning test on a bounding region, which must hold whenever any
// descendant leaf could match. The tree searches with the Compiled form.
func (p Predicate) LeafMatch(r temporal.Region, ct chronon.Instant) bool {
	return leafTest(p.Op, r.Resolve(ct), p.Query.Region().Resolve(ct))
}

func (p Predicate) InternalMatch(bound temporal.Region, ct chronon.Instant) bool {
	return internalTest(p.Op, bound.Resolve(ct), bound, p.Query.Region().Resolve(ct), ct)
}

// Compound is an AND/OR tree over predicates — the blade-side decomposition
// of a complex qualification descriptor (Section 6.3: "the logic for how to
// break a complex qualification ... into simple ones and ... how to invoke
// appropriate strategy functions").
type Compound struct {
	And      bool // true = conjunction, false = disjunction
	Children []*Compound
	Pred     *Predicate // leaf when non-nil
}

// Leaf wraps one predicate.
func Leaf(p Predicate) *Compound { return &Compound{Pred: &p} }

// AndOf conjoins compounds.
func AndOf(cs ...*Compound) *Compound { return &Compound{And: true, Children: cs} }

// OrOf disjoins compounds.
func OrOf(cs ...*Compound) *Compound { return &Compound{And: false, Children: cs} }

// Validate checks every query extent.
func (c *Compound) Validate() error {
	if c == nil {
		return fmt.Errorf("grtree: nil qualification")
	}
	if c.Pred != nil {
		if !c.Pred.Query.Valid() {
			return fmt.Errorf("grtree: invalid query extent %v", c.Pred.Query)
		}
		return nil
	}
	if len(c.Children) == 0 {
		return fmt.Errorf("grtree: empty boolean qualification")
	}
	for _, ch := range c.Children {
		if err := ch.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// LeafMatch is the reference leaf evaluation of the AND/OR tree at ct.
func (c *Compound) LeafMatch(r temporal.Region, ct chronon.Instant) bool {
	if c.Pred != nil {
		return c.Pred.LeafMatch(r, ct)
	}
	for _, ch := range c.Children {
		m := ch.LeafMatch(r, ct)
		if c.And && !m {
			return false
		}
		if !c.And && m {
			return true
		}
	}
	return c.And
}

// InternalMatch is the reference pruning test at ct: a leaf satisfying an
// AND satisfies every conjunct, so every conjunct's internal test must hold on
// the bound; for an OR, some disjunct's internal test must hold.
func (c *Compound) InternalMatch(bound temporal.Region, ct chronon.Instant) bool {
	if c.Pred != nil {
		return c.Pred.InternalMatch(bound, ct)
	}
	for _, ch := range c.Children {
		m := ch.InternalMatch(bound, ct)
		if c.And && !m {
			return false
		}
		if !c.And && m {
			return true
		}
	}
	return c.And
}

// Compiled is a qualification compiled at one current time. Section 5.4 fixes
// the current time per transaction, so each predicate's query region resolves
// to the same shape for every entry: Compile resolves it once, and Leaf,
// Internal and Covered resolve only the entry. The answers are the reference
// evaluation's by construction: both apply leafTest and internalTest to the
// entry and the query resolved at ct. Leaf first rejects on the entry's raw
// times (clause.rejects) only where leafTest would reject as well.
type Compiled struct {
	ct   chronon.Instant
	root clause
}

// clause is one node of a compiled qualification: a predicate, with its query
// resolved, when kids is empty; otherwise the AND or OR of kids.
type clause struct {
	op    rtree.Op
	query temporal.Shape
	// disjoint: every entry leafTest accepts overlaps query, so an entry
	// that cannot overlap it is rejected unresolved. It holds for every
	// operator but Equal with an empty query, which two empty shapes meet.
	disjoint bool
	and      bool
	kids     []clause
}

// Compile validates the qualification and compiles it at ct.
func (c *Compound) Compile(ct chronon.Instant) (*Compiled, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Compiled{ct: ct, root: c.clause(ct)}, nil
}

func (c *Compound) clause(ct chronon.Instant) clause {
	if c.Pred != nil {
		return c.Pred.clause(ct)
	}
	cl := clause{and: c.And, kids: make([]clause, len(c.Children))}
	for i, ch := range c.Children {
		cl.kids[i] = ch.clause(ct)
	}
	return cl
}

func (p Predicate) clause(ct chronon.Instant) clause {
	q := p.Query.Region().Resolve(ct)
	return clause{op: p.Op, query: q, disjoint: p.Op != rtree.OpEqual || !q.Empty()}
}

// compile compiles a predicate whose query extent the caller has validated.
func (p Predicate) compile(ct chronon.Instant) *Compiled {
	return &Compiled{ct: ct, root: p.clause(ct)}
}

// Leaf implements rtree.Matcher: leafTest on the resolved entry, unless the
// entry's raw times already reject it.
func (m *Compiled) Leaf(r temporal.Region) bool {
	return !m.root.rejects(r) && m.root.leaf(r.Resolve(m.ct))
}

// Internal implements rtree.Matcher: internalTest on the resolved bound.
func (m *Compiled) Internal(r temporal.Region) bool { return m.root.internal(r.Resolve(m.ct), r, m.ct) }

// covers reports whether the query of a single predicate contains the bound.
func (m *Compiled) covers(bound temporal.Region) bool {
	return m.root.query.ContainsShape(bound.Resolve(m.ct))
}

// Covered implements the kernel's covered-subtree probe for a single
// Overlaps or ContainedIn predicate: when the query contains the bound and
// every leaf under it started by ct (so none is empty there), every leaf lies
// inside, hence overlaps, the query. Equal and Contains carry no such
// implication.
func (m *Compiled) Covered(bound temporal.Region) bool {
	op := m.root.op
	return len(m.root.kids) == 0 && (op == rtree.OpOverlaps || op == rtree.OpContainedIn) &&
		bound.StartedBy(m.ct) && m.covers(bound)
}

func (c *clause) leaf(s temporal.Shape) bool {
	if len(c.kids) == 0 {
		return leafTest(c.op, s, c.query)
	}
	for i := range c.kids {
		if m := c.kids[i].leaf(s); m != c.and {
			return m
		}
	}
	return c.and
}

// rejects reports, without resolving r, that r cannot satisfy the clause. A
// disjoint predicate rejects an entry whose resolved shape misses its query
// on one axis: resolution at ct keeps TTBegin and VTBegin and replaces only a
// UC TTEnd, so an entry starting after the query ends, or ending at a ground
// TTEnd before the query starts, has an empty intersection with it. (UC is
// the largest instant, so a growing entry never ends before anything.) An AND
// rejects when one conjunct does, an OR when every disjunct does.
func (c *clause) rejects(r temporal.Region) bool {
	if len(c.kids) == 0 {
		return c.disjoint && (int64(r.TTBegin) > c.query.TTEnd || int64(r.VTBegin) > c.query.VTEnd ||
			int64(r.TTEnd) < c.query.TTBegin)
	}
	for i := range c.kids {
		if c.kids[i].rejects(r) == c.and {
			return c.and
		}
	}
	return !c.and
}

func (c *clause) internal(s temporal.Shape, r temporal.Region, ct chronon.Instant) bool {
	if len(c.kids) == 0 {
		return internalTest(c.op, s, r, c.query, ct)
	}
	for i := range c.kids {
		if m := c.kids[i].internal(s, r, ct); m != c.and {
			return m
		}
	}
	return c.and
}

// ParallelScan offers the predicate a root fan-out partitioning; see
// rtree.Tree.ParallelScan for when it declines (nil, no error).
func (t *Tree) ParallelScan(pred Predicate, ct chronon.Instant, degree int) (*ParallelScan, error) {
	if !pred.Query.Valid() {
		return nil, fmt.Errorf("grtree: invalid query extent %v", pred.Query)
	}
	return t.Tree.ParallelScan(pred.compile(ct), degree)
}
