package engine

import (
	"sort"
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
	var tb *catalog.Table
	for _, vt := range catalog.VirtualTables() {
		if strings.EqualFold(vt.Name, name) {
			tb = vt
			break
		}
	}
	if tb == nil {
		return nil, nil, false
	}
	switch strings.ToLower(tb.Name) {
	case "sysprofile":
		snap := s.e.obs.Snapshot()
		rows := make([][]types.Datum, 0, len(snap))
		for _, m := range snap {
			rows = append(rows, []types.Datum{m.Name, int64(m.Value)})
		}
		return tb, rows, true
	case "sysptprof":
		return tb, s.e.ptprofRows(), true
	}
	return nil, nil, false
}

// ptprofRows snapshots every partition's buffer-pool counters (tables first,
// then sbspaces, each sorted by name).
func (e *Engine) ptprofRows() [][]types.Datum {
	e.mu.Lock()
	tableNames := make([]string, 0, len(e.tables))
	for n := range e.tables {
		tableNames = append(tableNames, n)
	}
	spaceNames := make([]string, 0, len(e.spaces))
	for n := range e.spaces {
		spaceNames = append(spaceNames, n)
	}
	e.mu.Unlock()
	sort.Strings(tableNames)
	sort.Strings(spaceNames)

	var rows [][]types.Datum
	add := func(name, kind string, bp *storage.BufferPool) {
		if bp == nil {
			return
		}
		st := bp.Stats()
		rows = append(rows, []types.Datum{
			name, kind,
			int64(st.Fetches), int64(st.Hits), int64(st.Reads),
			int64(st.Writes), int64(st.Evictions),
		})
	}
	for _, n := range tableNames {
		if tb, err := e.cat.TableByName(n); err == nil {
			e.mu.Lock()
			bp := e.spacePools[tb.SpaceID]
			e.mu.Unlock()
			add(tb.Name, "table", bp)
		}
	}
	for _, n := range spaceNames {
		if sp, err := e.cat.SbspaceByName(n); err == nil {
			e.mu.Lock()
			bp := e.spacePools[sp.ID]
			e.mu.Unlock()
			add(sp.Name, "sbspace", bp)
		}
	}
	return rows
}
