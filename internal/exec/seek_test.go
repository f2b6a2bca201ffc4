package exec

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graql/internal/ast"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/table"
	"graql/internal/value"
)

// The seek-versus-scan differential tests: every seekable predicate must
// give exactly what the scan kernels give — the same rows in the same
// order, or the same runtime error. The oracle runs the scan kernels
// directly (table.FilterIdxPar for table selects, scanCandidates for
// graph steps) on the same analyzed, parameter-bound statement.

const seekSchema = `
create table D(k varchar(8), g varchar(8), n integer, d date, f float, z integer)
create table R(src varchar(8), dst varchar(8))

create vertex KV(k) from table D
create vertex GV(g) from table D
create vertex NV(n) from table D where n > 1
create vertex DV(d) from table D
create vertex KZ(k) from table D where z <> 0
create vertex KD(k, d) from table D

create edge link with vertices (KV as X, KV as Y)
from table R
where R.src = X.k and R.dst = Y.k

ingest table D d.csv
ingest table R r.csv
insert into D values ('k6', null, 2, date '2020-01-02', null, 0)
`

// Column g repeats values and has a NULL row (k6, whose z = 0 makes
// 10 / z fail); n, d and f repeat and have NULLs; z has zeros.
var seekFiles = map[string]string{
	"d.csv": "k0,a,1,2020-01-01,1.5,1\nk1,b,2,2020-01-02,2.5,0\nk2,a,2,2020-01-02,1.5,2\n" +
		"k3,c,3,2020-01-03,0.5,0\nk4,a,,2020-01-04,1.5,5\nk5,b,3,,,1\n",
	"d2.csv": "k0,b,4,2021-01-01,1.5,1\nk1,b,4,2021-01-01,2.5,2\nk8,a,5,,0.5,0\n",
	"r.csv":  "k0,k1\nk1,k2\nk2,k3\nk0,k3\nk5,k0\n",
}

func seekEngine(t *testing.T) *Engine {
	t.Helper()
	e := newTestEngine(seekFiles)
	mustExec(t, e, seekSchema, nil)
	return e
}

type seekCase struct {
	cond   string
	params map[string]value.Value
	seek   bool // the predicate must take the seek path
}

func oneParam(name string, v value.Value) map[string]value.Value {
	return map[string]value.Value{name: v}
}

var tableSeekCases = []seekCase{
	{"k = 'k3'", nil, true},
	{"k = 'nope'", nil, true},
	{"g = 'b'", nil, true}, // duplicates; the NULL-g row is visited, not kept
	{"'c' = g", nil, true},
	{"n = 2", nil, true},
	{"d = date '2020-01-02'", nil, true},
	{"k = %P%", oneParam("P", value.NewString("k2")), true},
	{"n = %P%", oneParam("P", value.NewInt(3)), true},
	{"g = 'a' and n > 1", nil, true},
	{"(g = 'b' and n > 1) and d > date '2020-01-01'", nil, true},
	{"k = 'k0' and 10 / z > 1", nil, true},
	{"k = 'k1' and 10 / z > 1", nil, true}, // residual fails on the match
	{"g = 'a' and 10 / z > 1", nil, true},  // fails only on the NULL-g row
	{"g = 'zz' and 10 / z > 1", nil, true}, // missing key, same failure
	{"n = %P%", oneParam("P", value.NewString("3")), false},
	{"n = %P%", oneParam("P", value.NewNull(value.KindInt)), false},
	{"g = null", nil, false},
	{"n = 2.5", nil, false}, // float literal, int column
	{"f = 1.5", nil, false},
	{"d = '2020-01-03'", nil, true}, // coerced to a date literal
	{"n > 1 and g = 'a'", nil, false},
	{"g = 'a' or 10 / z > 1", nil, false},
	{"not g = 'a'", nil, false},
}

const tableSeekSelect = "select k, g, n, d, f, z from table D where "

// tableOracle runs a table select's where clause through the scan
// kernel, rendering the surviving rows.
func tableOracle(t *testing.T, e *Engine, q string, params map[string]value.Value) (rows [][]string, seek bool, err error) {
	t.Helper()
	e.Cat.RLock()
	defer e.Cat.RUnlock()
	sel, err := e.planSelect(mustParseStmt(t, q).(*ast.Select))
	if err != nil {
		t.Fatalf("plan %s: %v", q, err)
	}
	where, err := expr.BindParams(sel.Where, params)
	if err != nil {
		t.Fatalf("bind %s: %v", q, err)
	}
	_, seek = tableSeek(where, sel.Table)
	tb := sel.Table
	idx, err := table.FilterIdxPar(tb, func(r uint32) (bool, error) {
		return evalBool(where, singleTableEnv{t: tb, row: r})
	}, e.tablePar())
	if err != nil {
		return nil, seek, err
	}
	return renderRows(tb.Gather("oracle", idx)), seek, nil
}

func renderRows(tb *table.Table) [][]string {
	var out [][]string
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		row := make([]string, tb.NumCols())
		for c := range row {
			row[c] = tb.Value(r, c).String()
		}
		out = append(out, row)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkTableSeeks compares every table case against the scan oracle.
func checkTableSeeks(t *testing.T, e *Engine, stage string) {
	t.Helper()
	for _, c := range tableSeekCases {
		q := tableSeekSelect + c.cond
		want, seek, wantErr := tableOracle(t, e, q, c.params)
		if seek != c.seek {
			t.Errorf("%s: %s: seekable = %v, want %v", stage, c.cond, seek, c.seek)
		}
		res, err := e.ExecStmt(mustParseStmt(t, q), c.params)
		if errText(err) != errText(wantErr) {
			t.Errorf("%s: %s: error %q, scan gives %q", stage, c.cond, errText(err), errText(wantErr))
			continue
		}
		if err != nil {
			continue
		}
		if got := renderRows(res.Table); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s:\nseek %v\nscan %v", stage, c.cond, got, want)
		}
	}
}

var graphSeekCases = []seekCase{
	{"x.k from graph def x: KV (k = 'k3')", nil, true},
	{"x.k from graph def x: KV (k = 'nope')", nil, true},
	{"x.g from graph def x: GV (g = 'a')", nil, true}, // many-to-one
	{"x.n from graph def x: NV (n = 3)", nil, true},   // filtered many-to-one, int key
	{"x.n from graph def x: NV (n = 1)", nil, true},   // key filtered out of the view
	{"x.d from graph def x: DV (d = date '2020-01-02')", nil, true},
	{"x.k from graph def x: KZ (k = 'k1')", nil, true}, // filtered one-to-one, row excluded
	{"x.k from graph def x: KZ (k = 'k2')", nil, true},
	{"x.k from graph def x: KV (k = %P%)", oneParam("P", value.NewString("k2")), true},
	{"x.k from graph def x: KV (k = 'k0' and 10 / z > 1)", nil, true},
	{"x.k from graph def x: KV (k = 'k2' and n > 5)", nil, true},      // residual false
	{"x.k from graph def x: KV (k = 'k1' and 10 / z > 1)", nil, true}, // residual fails
	{"x.k from graph def x: KV (k = 'k0') --link--> def y: KV (y.n > x.n)", nil, true},
	{"x.k from graph def x: KV (k = %P%)", oneParam("P", value.NewInt(1)), false},
	{"x.k from graph def x: KV (k = null)", nil, false},
	{"x.k from graph def x: KV (n = 2)", nil, false},   // not the key
	{"x.k from graph def x: KV (f = 1.5)", nil, false}, // float column
	{"x.k from graph def x: KV (n = 2.5)", nil, false},
	{"x.k from graph def x: KD (k = 'k1')", nil, false}, // two key columns
	{"x.k from graph def x: KV (n > 1 and k = 'k2')", nil, false},
	{"x.k from graph def x: KV (n > 1) --link--> def y: KV (k = 'k3')", nil, true},
	{"x.k from graph def x: S.KV (k = 'k2')", nil, true}, // seeded, in the seed
	{"x.k from graph def x: S.KV (k = 'k4')", nil, true}, // seeded, outside it
}

// checkGraphSeeks compares, for every graph case and every node that
// seeks, the seek's candidates against the scan kernel's, then checks
// the statement itself fails exactly when the scan does.
func checkGraphSeeks(t *testing.T, e *Engine, stage string) {
	t.Helper()
	mustExec(t, e, "select * from graph KV (n > 1) --link--> KV ( ) into subgraph S", nil)
	for _, c := range graphSeekCases {
		q := "select " + c.cond
		seeks, scanErr := graphOracle(t, e, q, c.params, stage)
		if (seeks > 0) != c.seek {
			t.Errorf("%s: %s: %d seeking steps, want seek=%v", stage, c.cond, seeks, c.seek)
		}
		_, err := e.ExecStmt(mustParseStmt(t, q), c.params)
		if (err == nil) != (scanErr == nil) || err != nil && !strings.Contains(err.Error(), scanErr.Error()) {
			t.Errorf("%s: %s: error %q, scan gives %q", stage, c.cond, errText(err), errText(scanErr))
		}
	}
}

func graphOracle(t *testing.T, e *Engine, q string, params map[string]value.Value, stage string) (seeks int, scanErr error) {
	t.Helper()
	e.Cat.RLock()
	defer e.Cat.RUnlock()
	sel, err := e.planSelect(mustParseStmt(t, q).(*ast.Select))
	if err != nil {
		t.Fatalf("plan %s: %v", q, err)
	}
	for _, alt := range sel.GraphAlts {
		prep, err := e.prepareAlt(alt, params)
		if err != nil {
			t.Fatalf("bind %s: %v", q, err)
		}
		pat := alt.Pattern
		err = e.forEachTyping(pat, func(nt []*graph.VertexType, et []*graph.EdgeType) error {
			m, err := e.newMatcher(pat, cloneTypes(nt), cloneEdgeTypes(et), prep.nodeCond, prep.edgeCond, mustSeeds(e, pat, nt))
			if err != nil {
				return err
			}
			for node, ks := range m.seek {
				scan, serr := m.scanCandidates(node)
				if serr != nil && scanErr == nil {
					scanErr = serr
				}
				if ks == nil {
					continue
				}
				seeks++
				seek, err := m.seekCandidates(node, ks)
				if errText(err) != errText(serr) {
					t.Errorf("%s: %s: node %d seek error %q, scan %q", stage, q, node, errText(err), errText(serr))
				} else if err == nil && !seek.Equal(scan) {
					t.Errorf("%s: %s: node %d seek candidates %v, scan %v", stage, q, node, seek.Slice(), scan.Slice())
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return seeks, scanErr
}

// mutations are applied in order; after each, every case is re-checked
// against the new table version.
var seekMutations = []struct{ name, script string }{
	{"insert", "insert into D values ('k7', 'a', 2, date '2020-01-02', 1.5, 3), ('k10', 'c', 3, null, 0.5, 4)"},
	{"update", "update D set g = 'b', z = 0 where k = 'k0'"},
	{"delete", "delete from D where k = 'k2'"},
	{"ingest", "ingest table D d2.csv"},
	{"insert after ingest", "insert into D values ('k9', null, 4, null, null, 0)"},
}

func TestSeekMatchesScan(t *testing.T) {
	e := seekEngine(t)
	checkTableSeeks(t, e, "initial")
	checkGraphSeeks(t, e, "initial")
	for _, mu := range seekMutations {
		mustExec(t, e, mu.script, nil)
		checkTableSeeks(t, e, mu.name)
		checkGraphSeeks(t, e, mu.name)
	}
}

// TestSeekMatchesScanAfterReplay recovers the fixture's mutations from
// the write-ahead log and checks the recovered table versions.
func TestSeekMatchesScanAfterReplay(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, seekFiles)
	mustExec(t, e, seekSchema, nil)
	for _, mu := range seekMutations {
		mustExec(t, e, mu.script, nil)
	}
	rec := newDurableEngine(t, dir, nil)
	checkTableSeeks(t, rec, "replayed")
	checkGraphSeeks(t, rec, "replayed")
	want := renderRows(mustExec(t, e, tableSeekSelect+"g = 'b'", nil)[0].Table)
	if got := renderRows(mustExec(t, rec, tableSeekSelect+"g = 'b'", nil)[0].Table); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed seek %v, live %v", got, want)
	}
}

// TestSeekAccessPathReported: EXPLAIN, EXPLAIN ANALYZE and the scan
// counters name and charge the access path a select takes.
func TestSeekAccessPathReported(t *testing.T) {
	e := seekEngine(t)
	text := explainText(t, e, "explain "+tableSeekSelect+"g = 'a' and n > 1")
	if !strings.Contains(text, "seek: table D (7 rows) on g = 'a'") {
		t.Errorf("table seek plan:\n%s", text)
	}
	if text := explainText(t, e, "explain "+tableSeekSelect+"n > 1"); !strings.Contains(text, "scan: table D") {
		t.Errorf("table scan plan:\n%s", text)
	}
	if text := explainText(t, e, "explain select x.k from graph def x: KV (k = %P%)"); !strings.Contains(text, "scan: start at x") {
		t.Errorf("an unbound parameter cannot seek:\n%s", text)
	}
	est := explainEstRows(t, e, "explain select y.k from graph KV (k = 'k0') --link--> def y: KV ( )")
	if est["seek"] != "0..1" {
		t.Errorf("key seek est_rows = %q, want 0..1", est["seek"])
	}

	rows := analyzeRows(t, e, "explain analyze "+tableSeekSelect+"g = 'b'")
	// g = 'b' holds on two rows; the NULL-g row is examined too.
	if r := findRow(rows, "seek"); r == nil || r[2] != "3" {
		t.Errorf("seek span should count the 3 examined rows: %v", rows)
	}
	if r := findRow(rows, "filter"); r == nil || r[2] != "2" {
		t.Errorf("filter span should keep 2 rows: %v", rows)
	}
	rows = analyzeRows(t, e, "explain analyze select x.k from graph def x: KV (k = 'k1') --link--> KV ( )")
	if r := findRow(rows, "seek"); r == nil || !strings.Contains(r[1], "start at x by key k = 'k1'") {
		t.Errorf("graph seek span: %v", rows)
	}
}

// TestRowsScannedCharged: a table scan charges every row to
// graql_rows_scanned_total and the statement's wide event, a seek only
// the rows it examined.
func TestRowsScannedCharged(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.FileOpener = memFS(seekFiles)
	opts.Obs = obs.New()
	e := New(opts)
	mustExec(t, e, seekSchema, nil)
	counter := opts.Obs.Counter("graql_rows_scanned_total", "")
	for _, c := range []struct {
		q    string
		want int64
	}{
		{tableSeekSelect + "n > 1", 7},
		{"select k from table D", 7},
		{tableSeekSelect + "g = 'b'", 3}, // two matches and the NULL-g row
		{tableSeekSelect + "k = 'nope'", 0},
		{"select x.k from graph def x: KV (k = 'k1')", 1},
	} {
		before := counter.Value()
		mustExec(t, e, c.q, nil)
		if n := counter.Value() - before; n != c.want {
			t.Errorf("%s: charged %d rows, want %d", c.q, n, c.want)
		}
	}
	found := false
	for _, st := range opts.Obs.Statements() {
		if strings.Contains(st.Query, "where g =") {
			found = true
			if st.RowsScanned != 3 {
				t.Errorf("wide events of %q carry %d scanned rows, want 3", st.Query, st.RowsScanned)
			}
		}
	}
	if !found {
		t.Errorf("no statement statistics for the seek: %+v", opts.Obs.Statements())
	}
}

// TestConcurrentFirstSeeks: concurrent first probes of one table version
// all get the scan's answer. Run under -race.
func TestConcurrentFirstSeeks(t *testing.T) {
	e := seekEngine(t)
	var csv strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&csv, "k%d,g%d,%d,2020-01-%02d,1.5,%d\n", i, i%37, i%101, 1+i%28, i%7)
	}
	if err := e.IngestReader("D", strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	queries := []string{"g = 'g5'", "n = 17", "k = 'k4242'", "d = date '2020-01-09' and z > 2"}
	want := make([][][]string, len(queries))
	for i, c := range queries {
		rows, seek, err := tableOracle(t, e, tableSeekSelect+c, nil)
		if err != nil || !seek {
			t.Fatalf("%s: oracle err %v, seek %v", c, err, seek)
		}
		want[i] = rows
	}
	const readers = 8
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range queries {
				i := (j + w) % len(queries)
				res, err := e.ExecScript(tableSeekSelect+queries[i], nil)
				if err != nil {
					t.Errorf("%s: %v", queries[i], err)
					return
				}
				if got := renderRows(res[0].Table); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: concurrent seek gave %d rows, scan %d", queries[i], len(got), len(want[i]))
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzKeySeek builds table D from fuzzed rows and checks a key-equality
// select with a failing residual against the scan oracle.
func FuzzKeySeek(f *testing.F) {
	f.Add([]byte("a1b0c\x00a2"), "a", int64(1))
	f.Add([]byte("\x00\x00zz"), "z", int64(0))
	f.Add([]byte(""), "", int64(-3))
	f.Fuzz(func(t *testing.T, data []byte, key string, n int64) {
		if len(data) > 256 || strings.ContainsAny(key, "'\\\n\r,\"") || len(key) > 8 {
			return
		}
		var csv strings.Builder
		for i := 0; i+1 < len(data); i += 2 {
			g := string(rune('a' + data[i]%4))
			nv := fmt.Sprint(int(data[i+1]%5) - 2)
			if data[i]%7 == 0 {
				nv = "" // NULL
			}
			fmt.Fprintf(&csv, "k%d,%s,%s,2020-01-01,1.5,%d\n", i, g, nv, data[i+1]%3)
		}
		e := newTestEngine(map[string]string{"d.csv": csv.String(), "r.csv": ""})
		mustExec(t, e, seekSchema, nil)
		params := map[string]value.Value{"G": value.NewString(key), "N": value.NewInt(n)}
		for _, c := range []string{"g = %G% and 10 / z > 0", "n = %N% and 10 / z > 0", "n = %N%", "k = %G% and n > 0"} {
			q := tableSeekSelect + c
			want, seek, wantErr := tableOracle(t, e, q, params)
			if !seek {
				t.Fatalf("%s must seek", c)
			}
			res, err := e.ExecStmt(mustParseStmt(t, q), params)
			if errText(err) != errText(wantErr) {
				t.Fatalf("%s: error %q, scan %q", c, errText(err), errText(wantErr))
			}
			if err == nil && !reflect.DeepEqual(renderRows(res.Table), want) {
				t.Fatalf("%s: seek %v, scan %v", c, renderRows(res.Table), want)
			}
		}
	})
}
