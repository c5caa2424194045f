package engine

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// The onstat-style virtual catalog tables (the reproduction's answer to
// Informix's onstat -g profile screens): SYSPROFILE serves the engine-wide
// obs registry, SYSPTPROF serves per-partition (table/sbspace) buffer-pool
// I/O counters. They are served from live counters on every read — never
// stored — and are shadowed by a real user table of the same name, should
// one exist. A SELECT over one runs the ordinary SELECT cursor over a
// one-batch source of these rows (openVirtualCursor).

// virtualRows resolves a virtual table by name and materialises its rows.
func (s *Session) virtualRows(name string) (*catalog.Table, [][]types.Datum, bool) {
	for _, tb := range catalog.VirtualTables() {
		switch {
		case !strings.EqualFold(tb.Name, name):
		case tb.Name == "sysptprof":
			return tb, s.e.ptprofRows(), true
		default: // sysprofile
			snap := s.e.obs.Snapshot()
			rows := make([][]types.Datum, 0, len(snap))
			for _, m := range snap {
				rows = append(rows, []types.Datum{m.Name, int64(m.Value)})
			}
			return tb, rows, true
		}
	}
	return nil, nil, false
}

// ptprofRows snapshots every partition's buffer-pool counters: tables, then
// sbspaces, each sorted by name, then the catalog's system sbspace.
func (e *Engine) ptprofRows() [][]types.Datum {
	type part struct {
		name, kind string
		bp         *storage.BufferPool
	}
	var parts []part
	e.mu.Lock()
	for _, t := range e.tables {
		parts = append(parts, part{t.Name, "table", t.Pool()})
	}
	for _, sp := range e.spaces {
		parts = append(parts, part{sp.Name, "sbspace", sp.Pool()})
	}
	e.mu.Unlock()
	slices.SortFunc(parts, func(a, b part) int { // "table" sorts after "sbspace"
		return cmp.Or(cmp.Compare(b.kind, a.kind), cmp.Compare(strings.ToLower(a.name), strings.ToLower(b.name)))
	})
	if e.catSpace != nil {
		parts = append(parts, part{"catalog", "catalog", e.catSpace.Pool()})
	}
	rows := make([][]types.Datum, len(parts))
	for i, p := range parts {
		st := p.bp.Stats()
		rows[i] = []types.Datum{p.name, p.kind, int64(st.Fetches), int64(st.Hits),
			int64(st.Reads), int64(st.Writes), int64(st.Evictions)}
	}
	return rows
}
