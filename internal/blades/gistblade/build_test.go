package gistblade

import (
	"strings"
	"testing"
)

// TestBulkBuildAgreesWithSeqscan: build='bulk' packs both operator classes'
// trees through am_build (the kernel's STR load on the keys' boxes), and the
// bulk-built indexes answer as a sequential scan does.
func TestBulkBuildAgreesWithSeqscan(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	builds := e.Obs().Snapshot().Get("am.am_build")
	fill(t, s, "(build='bulk')")
	if got := e.Obs().Snapshot().Get("am.am_build") - builds; got != 2 {
		t.Fatalf("two bulk builds made %d am_build call(s)", got)
	}
	exec(t, s, `CHECK INDEX span_ix`)
	exec(t, s, `CHECK INDEX gix`)

	viaIndex := make([]string, len(agreementQueries))
	for i, q := range agreementQueries {
		viaIndex[i] = strings.Join(rowInts(t, exec(t, s, q)), ",")
	}
	exec(t, s, `DROP INDEX span_ix`)
	exec(t, s, `DROP INDEX gix`)
	for i, q := range agreementQueries {
		if seq := strings.Join(rowInts(t, exec(t, s, q)), ","); seq != viaIndex[i] {
			t.Fatalf("query %d: bulk-built index %q vs seqscan %q", i, viaIndex[i], seq)
		}
	}
}
