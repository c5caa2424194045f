// Package treeblade is the purpose-function scaffold the three tree blades
// share: every line of the Virtual-Index Interface protocol (Appendix A,
// Table 5) that does not depend on what a key means, written once. The paper
// closes (Section 7) by proposing "such a generic access method as a
// DataBlade"; this is its blade half, in two layers.
//
// Layer 1, Method, is the storage lifecycle of any tree kept in an sbspace
// large object: am_create, am_open, am_close, am_drop, the handle record in
// the access method's bookkeeping table, the storage index parameter, and
// the registration SQL.
//
// Layer 2, Kernel, adds the scan and maintenance purpose functions of a tree
// built on internal/rtree, generic over its bound type: grtblade, rstblade
// and gistblade each supply a Binding — how a column value becomes a key, a
// qualification a matcher, an entry a row — and nothing else.
package treeblade

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/am"
	"repro/internal/mi"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/sbspace"
)

// Storage is the scaffold's half of a blade's per-open-index state (the td
// of Appendix A). The blade embeds it in its own half — the Tree object, the
// parsed parameters — and the whole is what id.UserData holds.
type Storage struct {
	// Store is the open large object the tree's nodes live in.
	Store *nodestore.LOStore
	// Placement is how am_create lays nodes out over large objects
	// (Section 5.3); Param sets it.
	Placement nodestore.Placement

	fresh bool // am_create just ran: the am_open that follows has nothing to do
}

func (s *Storage) storage() *Storage { return s }

// Records lists the bookkeeping records, beyond the handle record, that
// belong to the index: am_drop deletes them with it. A blade that keeps such
// records overrides this.
func (*Storage) Records(*am.IndexDesc) []string { return nil }

// Param sets the index parameter every tree blade shares. A blade's own
// parameter switch ends here, so a key nobody claims is refused once.
func (s *Storage) Param(blade, key, value string) error {
	if !strings.EqualFold(key, "placement") {
		return fmt.Errorf("%s: unknown index parameter %q", blade, key)
	}
	switch v := strings.ToLower(value); {
	case v == "single":
		s.Placement = nodestore.SingleLO
	case v == "pernode":
		s.Placement = nodestore.PerNodeLO
	case strings.HasPrefix(v, "subtree:"):
		n, err := strconv.Atoi(v[len("subtree:"):])
		if err != nil || n < 1 {
			return fmt.Errorf("%s: bad placement %q", blade, value)
		}
		s.Placement = nodestore.PerSubtreeLO(n)
	default:
		return fmt.Errorf("%s: bad placement %q", blade, value)
	}
	return nil
}

// Opened is a blade's per-open-index state: a pointer to a struct that embeds
// Storage.
type Opened interface {
	storage() *Storage
	Records(id *am.IndexDesc) []string
	// Attach creates (create) or loads the tree over the just-opened Store.
	Attach(ctx *mi.Context, id *am.IndexDesc, create bool) error
}

// Method describes one access method to the scaffold.
type Method[T Opened] struct {
	// AmName is the registered access method; it keys the bookkeeping table.
	AmName string
	// Prefix names the purpose functions (Prefix_create, ...) and is the
	// blade's trace class.
	Prefix string
	// Blade prefixes error texts.
	Blade string
	// Configure is everything am_create decides before storage exists
	// (Table 5, grt_create steps 2–4) and am_open re-derives: it checks the
	// column types and operator class, parses the index parameters, and
	// returns the per-open state without a tree. create is false on am_open.
	Configure func(ctx *mi.Context, id *am.IndexDesc, create bool) (T, error)
}

// State fetches the blade state from the descriptor.
func (m *Method[T]) State(id *am.IndexDesc) (T, error) {
	st, ok := id.UserData.(T)
	if !ok {
		return st, fmt.Errorf("%s: index %s is not open", m.Blade, id.Name)
	}
	return st, nil
}

// Create implements am_create (Table 5, grt_create).
func (m *Method[T]) Create(ctx *mi.Context, id *am.IndexDesc) error {
	// Steps 2–4: refuse unsuitable columns, operator classes, parameters and
	// duplicates while there is nothing to undo.
	st, err := m.Configure(ctx, id, true)
	if err != nil {
		return err
	}
	// Step 5: create the BLOB the index is stored in.
	if id.SpaceName == "" {
		return fmt.Errorf("%s: %s stores indexes in sbspaces; use CREATE INDEX ... IN <sbspace>", m.Blade, m.AmName)
	}
	space, err := id.Services.Space(id.SpaceName)
	if err != nil {
		return err
	}
	s := st.storage()
	store, handle, err := nodestore.CreateLO(space, id.Services.TxID(), id.Services.Isolation(), s.Placement)
	if err != nil {
		return err
	}
	// Steps 1/7: create the Tree object over the open BLOB and keep it in td.
	s.Store, s.fresh = store, true
	if err := st.Attach(ctx, id, true); err != nil {
		return err
	}
	// Step 6: record the index id and BLOB handle in the table associated
	// with the access method.
	rec := make([]byte, sbspace.HandleSize)
	handle.Encode(rec)
	if err := id.Services.AMRecordPut(m.AmName, id.Name, rec); err != nil {
		return err
	}
	id.UserData = st
	ctx.Tracer().Tracef(m.Prefix, 1, "create %s in %s (%v)", id.Name, id.SpaceName, handle)
	return nil
}

// Open implements am_open (Table 5, grt_open).
func (m *Method[T]) Open(ctx *mi.Context, id *am.IndexDesc) error {
	// Step 1: if invoked right after am_create, the tree is already open.
	if st, ok := id.UserData.(T); ok && st.storage().fresh {
		st.storage().fresh = false
		return nil
	}
	st, err := m.Configure(ctx, id, false)
	if err != nil {
		return err
	}
	// Step 3: get the BLOB handle from the access method's table. The
	// record is catalog bytes: check them before decoding.
	rec, ok, err := id.Services.AMRecordGet(m.AmName, id.Name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%s: index %s has no access-method record", m.Blade, id.Name)
	}
	if len(rec) != sbspace.HandleSize {
		return fmt.Errorf("%s: corrupt access-method record (%d bytes)", m.Blade, len(rec))
	}
	space, err := id.Services.Space(id.SpaceName)
	if err != nil {
		return err
	}
	// Step 4: open the BLOB (shared lock for read-only statements,
	// exclusive otherwise; Section 5.3's automatic LO-level locking).
	mode := sbspace.ReadWrite
	if id.ReadOnly {
		mode = sbspace.ReadOnly
	}
	store, err := nodestore.OpenLO(space, id.Services.TxID(), id.Services.Isolation(), sbspace.DecodeHandle(rec), mode)
	if err != nil {
		return err
	}
	// Step 2: create the Tree object and save its pointer in td.
	st.storage().Store = store
	if err := st.Attach(ctx, id, false); err != nil {
		store.Close()
		return err
	}
	id.UserData = st
	return nil
}

// Close implements am_close (Table 5, grt_close).
func (m *Method[T]) Close(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := m.State(id)
	if err != nil {
		return err
	}
	if err := st.storage().Store.Close(); err != nil {
		return err
	}
	id.UserData = nil
	return nil
}

// Drop implements am_drop (Table 5, grt_drop).
func (m *Method[T]) Drop(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := m.State(id)
	if err != nil {
		return err
	}
	// Step 2: drop the BLOB(s).
	if err := st.storage().Store.Drop(); err != nil {
		return err
	}
	// Step 3: delete the Tree object.
	id.UserData = nil
	// Step 4: delete the index's records from the access method's table.
	for _, key := range append(st.Records(id), id.Name) {
		if err := id.Services.AMRecordDelete(m.AmName, key); err != nil {
			return err
		}
	}
	ctx.Tracer().Tracef(m.Prefix, 1, "drop %s", id.Name)
	return nil
}

// Library returns the storage-lifecycle purpose functions under their
// symbol names; the blade adds its scan functions and UDRs.
func (m *Method[T]) Library() am.Library {
	return am.Library{
		m.Prefix + "_create": am.AmIndexFunc(m.Create),
		m.Prefix + "_drop":   am.AmIndexFunc(m.Drop),
		m.Prefix + "_open":   am.AmIndexFunc(m.Open),
		m.Prefix + "_close":  am.AmIndexFunc(m.Close),
	}
}

// RegistrationSQL generates the purpose-function half of a blade's
// objects.sql (Section 4, Steps 2–3): one CREATE FUNCTION per purpose slot
// the library defines a Prefix_<slot> symbol for, and the CREATE SECONDARY
// ACCESS_METHOD that assigns them.
func RegistrationSQL(amName, prefix, libraryPath string, lib am.Library) string {
	var fns, slots strings.Builder
	for _, slot := range am.PurposeSlots {
		fn := prefix + strings.TrimPrefix(slot, "am")
		if _, ok := lib[fn]; !ok {
			continue
		}
		returns := "int"
		if slot == "am_scancost" {
			returns = "float"
		}
		fmt.Fprintf(&fns, "CREATE FUNCTION %s(pointer) RETURNING %s EXTERNAL NAME '%s(%s)' LANGUAGE c;\n",
			fn, returns, libraryPath, fn)
		fmt.Fprintf(&slots, "\t%s = %s,\n", slot, fn)
	}
	return fns.String() + "CREATE SECONDARY ACCESS_METHOD " + amName + " (\n" + slots.String() + "\tam_sptype = 'S'\n);\n"
}

// Strategy resolves a strategy function of the time-extent operator classes
// — hard-coded resolution, Section 5.2's chosen alternative — to its
// operator. Argument order matters for the asymmetric pair: Contains(const,
// column) is the commutator ContainedIn(column, const).
func Strategy(fn string, colFirst bool) (rtree.Op, bool) {
	switch fn = strings.ToLower(fn); fn {
	case "overlaps":
		return rtree.OpOverlaps, true
	case "equal":
		return rtree.OpEqual, true
	case "contains", "containedin":
		if (fn == "contains") == colFirst {
			return rtree.OpContains, true
		}
		return rtree.OpContainedIn, true
	}
	return 0, false
}
