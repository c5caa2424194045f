package grtree

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// Matcher generalises the cursor's predicate: LeafMatch is the exact
// strategy test on a data region; InternalMatch is the pruning test on a
// bounding region and must hold whenever any descendant leaf could match.
// Predicate and Compound implement it as the reference evaluation; the tree
// searches with their Compiled form, and reaches any other Matcher through
// At.
type Matcher interface {
	LeafMatch(r temporal.Region, ct chronon.Instant) bool
	InternalMatch(bound temporal.Region, ct chronon.Instant) bool
}

// LeafMatch implements Matcher for a single predicate.
func (p Predicate) LeafMatch(r temporal.Region, ct chronon.Instant) bool {
	return leafTest(p.Op, r.Resolve(ct), p.Query.Region().Resolve(ct))
}

// InternalMatch implements Matcher for a single predicate.
func (p Predicate) InternalMatch(bound temporal.Region, ct chronon.Instant) bool {
	return internalTest(p.Op, bound.Resolve(ct), p.Query.Region().Resolve(ct))
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

// LeafMatch implements Matcher.
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

// InternalMatch implements Matcher: a leaf satisfying an AND satisfies every
// conjunct, so every conjunct's internal test must hold on the bound; for an
// OR, some disjunct's internal test must hold.
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

// at fixes a matcher's current time.
type at struct {
	m  Matcher
	ct chronon.Instant
}

func (a *at) Leaf(r temporal.Region) bool     { return a.m.LeafMatch(r, a.ct) }
func (a *at) Internal(r temporal.Region) bool { return a.m.InternalMatch(r, a.ct) }

// At fixes an arbitrary matcher at current time ct, evaluating it entry by
// entry: the form in which the kernel, which has no notion of time, searches
// with a qualification that cannot be compiled (leaf strategy functions
// dispatched as UDRs, Section 5.2).
func At(m Matcher, ct chronon.Instant) rtree.Matcher[temporal.Region] { return &at{m, ct} }

// Compiled is a qualification compiled at one current time. Section 5.4 fixes
// the current time per transaction, so each predicate's query region resolves
// to the same shape for every entry: Compile resolves it once, and Leaf,
// Internal and the covered test of AggCount resolve only the entry. The
// answers are the reference evaluation's by construction: both apply leafTest
// and internalTest to the entry and the query resolved at ct.
type Compiled struct {
	ct   chronon.Instant
	root clause
}

// clause is one node of a compiled qualification: a predicate, with its query
// resolved, when kids is empty; otherwise the AND or OR of kids.
type clause struct {
	op    Op
	query temporal.Shape
	and   bool
	kids  []clause
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
	return clause{op: p.Op, query: p.Query.Region().Resolve(ct)}
}

// compile compiles a predicate whose query extent the caller has validated.
func (p Predicate) compile(ct chronon.Instant) *Compiled {
	return &Compiled{ct: ct, root: p.clause(ct)}
}

// Leaf implements rtree.Matcher: leafTest on the resolved entry.
func (m *Compiled) Leaf(r temporal.Region) bool { return m.root.leaf(r.Resolve(m.ct)) }

// Internal implements rtree.Matcher: internalTest on the resolved bound.
func (m *Compiled) Internal(r temporal.Region) bool { return m.root.internal(r.Resolve(m.ct)) }

// covers is AggCount's covered test for a single predicate: the query
// contains the bound.
func (m *Compiled) covers(bound temporal.Region) bool {
	return m.root.query.ContainsShape(bound.Resolve(m.ct))
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

func (c *clause) internal(s temporal.Shape) bool {
	if len(c.kids) == 0 {
		return internalTest(c.op, s, c.query)
	}
	for i := range c.kids {
		if m := c.kids[i].internal(s); m != c.and {
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
