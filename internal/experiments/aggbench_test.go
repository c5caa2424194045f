package experiments

import (
	"strings"
	"testing"
)

// The ISSUE's acceptance criterion for P14: every cell is pushed, timed and
// agrees with the drain (RunP14 errors out on any disagreement or un-pushed
// cell). The wall-clock "pushed COUNT >= 10x the drain" ratio is printed in
// the table but not asserted: it fails on a busy host, and it punishes a
// faster drain. The mechanism stays pinned by counters (grtblade
// aggregate_test.go: zero am_getmulti calls and RowsScanned == 0 under a
// pushed COUNT) and the speed is what the benchmark gates (side_p50_us @
// scan_embedded).
func TestP14PushdownBeatsDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregate-pushdown sweep")
	}
	var out strings.Builder
	rows, err := RunP14(&out, []int{2000, 20000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("cells: %d\n%s", len(rows), out.String())
	}
	for _, r := range rows {
		if r.Pushed <= 0 || r.Drained <= 0 {
			t.Fatalf("empty timing in %d/%s:\n%s", r.Rows, r.Agg, out.String())
		}
	}
}
