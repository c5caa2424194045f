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
type Matcher interface {
	LeafMatch(r temporal.Region, ct chronon.Instant) bool
	InternalMatch(bound temporal.Region, ct chronon.Instant) bool
}

// LeafMatch implements Matcher for a single predicate.
func (p Predicate) LeafMatch(r temporal.Region, ct chronon.Instant) bool {
	return leafTest(p.Op, r, p.Query.Region(), ct)
}

// InternalMatch implements Matcher for a single predicate.
func (p Predicate) InternalMatch(bound temporal.Region, ct chronon.Instant) bool {
	return internalTest(p.Op, bound, p.Query.Region(), ct)
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

// at fixes a matcher's current time, as predAt does a predicate's.
type at struct {
	m  Matcher
	ct chronon.Instant
}

func (a *at) Leaf(r temporal.Region) bool     { return a.m.LeafMatch(r, a.ct) }
func (a *at) Internal(r temporal.Region) bool { return a.m.InternalMatch(r, a.ct) }

// At fixes an arbitrary matcher (compound qualifications) at current time
// ct: the form in which the kernel, which has no notion of time, searches
// with it.
func At(m Matcher, ct chronon.Instant) rtree.Matcher[temporal.Region] { return &at{m, ct} }

// ParallelScan offers the matcher a root fan-out partitioning; see
// rtree.Tree.ParallelScan for when it declines (nil, no error).
func (t *Tree) ParallelScan(m Matcher, ct chronon.Instant, degree int) (*ParallelScan, error) {
	return t.Tree.ParallelScan(At(m, ct), degree)
}
