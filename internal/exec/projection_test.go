package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"graql/internal/ast"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/table"
	"graql/internal/value"
)

// projSchema is a graph whose projections cover every column kind,
// NULLs, a many-to-one vertex type (G, whose attributes live in its
// Keys table), attribute-bearing edges, and a second vertex type (X)
// with wider varchars than V for or-alternatives that append into one
// table.
const projSchema = `
create table PV(id varchar(8), tag varchar(4), score integer, w float, d date, ok boolean)
create table PX(id varchar(16), tag varchar(12))
create table PEdges(src varchar(8), dst varchar(8), note varchar(6), k integer)
create table PMap(src varchar(8), dst varchar(16))
create vertex V(id) from table PV
create vertex X(id) from table PX
create vertex G(tag) from table PV
create edge pe with vertices (V as S, V as T) from table PEdges
where PEdges.src = S.id and PEdges.dst = T.id
create edge pm with vertices (V, X) from table PMap
where PMap.src = V.id and PMap.dst = X.id
create edge vg with vertices (V, G) from table PV
where PV.id = V.id and PV.tag = G.tag
ingest table PV pv.csv
ingest table PX px.csv
ingest table PEdges pe.csv
ingest table PMap pm.csv
update PV set tag = null where score = 3
`

// projFiles generates the fixture: n V rows with repetitive tags and
// periodic NULL numerics, X rows of which two do not fit V's varchars,
// and three pe edges per V vertex.
func projFiles(n int) map[string]string {
	var pv, px, pe, pm strings.Builder
	tags := []string{"a", "bb", "ccc", "dddd"}
	for i := 0; i < n; i++ {
		score, w, d := fmt.Sprint(i%11), fmt.Sprintf("%d.5", i%5), fmt.Sprintf("2009-01-%02d", 1+i%28)
		if i%7 == 0 {
			score, w, d = "", "", ""
		}
		fmt.Fprintf(&pv, "v%d,%s,%s,%s,%s,%v\n", i, tags[i%len(tags)], score, w, d, i%2 == 0)
		for j := 0; j < 3; j++ {
			note := []string{"x", "yy", ""}[(i+j)%3]
			fmt.Fprintf(&pe, "v%d,v%d,%s,%d\n", i, (i*5+j*3+1)%n, note, i*j)
		}
		fmt.Fprintf(&pm, "v%d,x%d\n", i, i%9)
	}
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&px, "x%d,t%d\n", i, i)
	}
	// v1's X neighbours end with a tag too wide for V's varchar(4), then
	// an id too wide for V's varchar(8).
	fmt.Fprintf(&px, "x9,toolongtag\nx-has-a-long-id,t\n")
	fmt.Fprintf(&pm, "v1,x9\nv1,x-has-a-long-id\n")
	return map[string]string{"pv.csv": pv.String(), "px.csv": px.String(), "pe.csv": pe.String(), "pm.csv": pm.String()}
}

func projEngine(t testing.TB, workers int, files map[string]string) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	opts.FileOpener = memFS(files)
	e := New(opts)
	if _, err := e.ExecScript(projSchema, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// rowProjection is the oracle for the columnar projection: it plans q
// like the engine, then projects every binding row by row, boxing each
// attribute through AttrValue and appending it with AppendRow, and
// finishes the table like runGraphSelect.
func rowProjection(t *testing.T, e *Engine, q string) (*table.Table, error) {
	t.Helper()
	e.Cat.RLock()
	defer e.Cat.RUnlock()
	sel, err := e.planSelect(mustParseStmt(t, q).(*ast.Select))
	if err != nil {
		t.Fatal(err)
	}
	out, err := table.New("result", sel.OutSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range sel.GraphAlts {
		prep, err := e.prepareAlt(alt, nil)
		if err != nil {
			return nil, err
		}
		pat, proj := alt.Pattern, alt.Proj
		err = e.forEachTyping(pat, func(nt []*graph.VertexType, et []*graph.EdgeType) error {
			m, err := e.newMatcher(pat, cloneTypes(nt), cloneEdgeTypes(et), prep.nodeCond, prep.edgeCond, mustSeeds(e, pat, nt))
			if err != nil {
				return err
			}
			buckets := make([][][]value.Value, m.workers*4)
			err = m.matchAll(len(buckets), func(shard int, b []uint32) error {
				row := make([]value.Value, len(proj))
				for i, item := range proj {
					if item.Source < len(pat.Nodes) {
						row[i] = m.nodeType[item.Source].AttrValue(b[item.Source], item.Col)
					} else {
						row[i] = m.edgeType[item.Source-len(pat.Nodes)].AttrValue(b[item.Source], item.Col)
					}
				}
				buckets[shard] = append(buckets[shard], row)
				return nil
			})
			if err != nil {
				return err
			}
			for _, rows := range buckets {
				for _, row := range rows {
					if err := out.AppendRow(row); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return e.finishTable(out, sel)
}

// projQueries cover column kinds, NULLs, edge attributes, the sparse
// (seek-anchored) and dense gather paths, multi-typing [ ] steps, a
// many-to-one step, or-alternatives appending into one table, and the
// distinct / order by / top copies of the result.
var projQueries = []string{
	`select * from graph V ( ) --pe--> V ( )`,
	`select * from graph V (id = 'v3') --pe--> V ( ) --vg--> G ( )`,
	`select x.id, x.score, x.tag from graph def x: V ( ) --[ ]--> [ ]`,
	`select x.d, x.ok, y.tag from graph def x: V (score > 4) --vg--> def y: G ( )`,
	`select y.id, y.tag from graph V (id = 'v1') --pe--> def y: V ( )
	 or V (id = 'v2') --pm--> def y: X (id <> 'x-has-a-long-id')`,
	`select y.id, y.tag from graph V (id = 'v1') --pe--> def y: V ( )
	 or V (id = 'v1') --pm--> def y: X ( )`,
	`select distinct y.tag, y.w from graph V ( ) --pe--> V ( ) --pe--> def y: V ( )`,
	`select top 7 x.id, y.score from graph def x: V ( ) --pe--> def y: V ( ) order by score desc, id asc`,
	`select y.tag from graph V (tag = 'bb') --pe--> def y: V (tag <> 'ccc')`,
}

func renderTable(tb *table.Table) []string {
	out := []string{strings.Join(tb.Schema().Names(), ",")}
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		var cells []string
		for _, v := range tb.Row(r) {
			cells = append(cells, v.String()+"/"+fmt.Sprint(v.IsNull()))
		}
		out = append(out, strings.Join(cells, ","))
	}
	return out
}

// TestColumnarProjectionMatchesRowProjection: the columnar projection
// returns exactly the oracle's rows, in its row order, with its errors
// (an or-alternative whose X rows overflow V's varchars fails on the
// first offending row, and on its first offending column), at every
// worker count.
func TestColumnarProjectionMatchesRowProjection(t *testing.T) {
	files := projFiles(120)
	for _, workers := range []int{1, 4} {
		e := projEngine(t, workers, files)
		for _, q := range projQueries {
			want, wantErr := rowProjection(t, e, q)
			res, err := e.ExecScript(q, nil)
			if strings.TrimPrefix(fmt.Sprint(err), "statement 1: ") != fmt.Sprint(wantErr) {
				t.Fatalf("workers=%d %s:\nerror %v, oracle %v", workers, q, err, wantErr)
			}
			if err != nil {
				continue
			}
			got := renderTable(res[0].Table)
			if len(got) < 2 {
				t.Fatalf("workers=%d %s: no rows; the fixture should match", workers, q)
			}
			if !reflect.DeepEqual(got, renderTable(want)) {
				t.Errorf("workers=%d %s:\ncolumnar %v\noracle   %v", workers, q, got, renderTable(want))
			}
			if d := res[0].Table.Col(0).Distinct(); want.Col(0).Distinct() != d {
				t.Errorf("workers=%d %s: Distinct() = %d, oracle %d", workers, q, d, want.Col(0).Distinct())
			}
		}
	}
}

// TestColumnarResultUnderDMLAndReplay: a projected result table behaves
// like the oracle's under insert, update, delete and key seeks, and a
// durable store replays it to the same rows.
func TestColumnarResultUnderDMLAndReplay(t *testing.T) {
	files := projFiles(60)
	const q = `select x.id, x.tag, x.score, y.note from graph def x: V ( ) --def y: pe--> V ( )`
	dml := `
insert into R values ('new', 'bb', 5, 'zz'), ('new2', null, null, 'x')
update R set tag = 'e' where score = 4
delete from R where note = 'yy'
`
	reads := []string{
		`select * from table R`,
		`select id, score from table R where tag = 'bb'`,
		`select id from table R where tag = 'e'`,
		`select id from table R where note = 'nope'`,
	}

	live := projEngine(t, 2, files)
	mustExec(t, live, q+` into table R`, nil)
	mustExec(t, live, dml, nil)

	oracle := projEngine(t, 2, files)
	want, err := rowProjection(t, oracle, q)
	if err != nil {
		t.Fatal(err)
	}
	want.Name = "R"
	oracle.Cat.BeginWrite()
	oracle.Cat.Lock()
	err = oracle.Cat.RegisterTable(want, true)
	oracle.Cat.BumpEpoch()
	oracle.Cat.Unlock()
	oracle.Cat.EndWrite()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, oracle, dml, nil)
	for _, r := range reads {
		g, w := tableRows(t, mustExec(t, live, r, nil)), tableRows(t, mustExec(t, oracle, r, nil))
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\ncolumnar %v\noracle   %v", r, g, w)
		}
	}

	dir := t.TempDir()
	durable := newDurableEngine(t, dir, files)
	mustExec(t, durable, projSchema, nil)
	mustExec(t, durable, q+` into table R`, nil)
	mustExec(t, durable, dml, nil)
	replayed := newDurableEngine(t, dir, files)
	for _, r := range reads {
		g, w := tableRows(t, mustExec(t, replayed, r, nil)), tableRows(t, mustExec(t, live, r, nil))
		if !reflect.DeepEqual(g, w) {
			t.Errorf("replayed %s:\ngot  %v\nwant %v", r, g, w)
		}
	}
}

// matcherSpans runs q on a traced engine and returns its operator spans
// as "action|detail|rows" lines, plus the result rows.
func matcherSpans(t *testing.T, e *Engine, q string) ([]string, [][]string) {
	t.Helper()
	tr := &obs.Trace{}
	res, err := e.WithTrace(tr, nil).ExecScript(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, sp := range tr.Spans() {
		spans = append(spans, fmt.Sprintf("%s|%s|%d", sp.Action, sp.Detail, sp.Rows()))
	}
	return spans, tableRows(t, res)
}

// TestTracedStepRowsExact: per-worker step accounting flushes exact row
// counts — the same per matcher step at 1 and 4 workers — and tracing
// leaves the result as the untraced run returns it.
func TestTracedStepRowsExact(t *testing.T) {
	const q = `select a.id, c.id as cid from graph def a: N ( ) --link--> N ( ) --link--> def c: N ( )`
	var want []string
	for _, workers := range []int{1, 4} {
		e := denseEngine(t, 60, 6, func(o *Options) { o.Workers = workers })
		spans, rows := matcherSpans(t, e, q)
		if plain := tableRows(t, mustExec(t, e, q, nil)); !reflect.DeepEqual(rows, plain) {
			t.Fatalf("workers=%d: traced result differs from untraced", workers)
		}
		if got := strings.Join(spans, "\n"); !strings.Contains(got, "|2160") {
			t.Fatalf("workers=%d: last step must count all 60*6*6 bindings:\n%s", workers, got)
		}
		if want == nil {
			want = spans
		} else if !reflect.DeepEqual(spans, want) {
			t.Errorf("workers=%d step rows differ:\n%v\nwant\n%v", workers, spans, want)
		}
	}
}

// TestExplainAnalyzeSampledStepTimes: with one expand call in 64 timed,
// every step the sweep reached still reports a nonzero time, and rows
// stay exact.
func TestExplainAnalyzeSampledStepTimes(t *testing.T) {
	e := denseEngine(t, 150, 15, nil)
	rows := analyzeRows(t, e, `explain analyze select a.id, d.id as did from graph
def a: N ( ) --link--> N ( ) --link--> N ( ) --link--> def d: N ( )`)
	wantRows := map[int]string{0: "150", 1: "2250", 2: "33750", 3: "506250"}
	step := 0
	for _, r := range rows {
		if r[0] != "scan" && r[0] != "expand" {
			continue
		}
		if r[2] != wantRows[step] {
			t.Errorf("step %d (%s) rows = %s, want %s", step, r[1], r[2], wantRows[step])
		}
		if r[3] == "0" {
			t.Errorf("step %d (%s) reached but time_us = 0", step, r[1])
		}
		step++
	}
	if step != 4 {
		t.Fatalf("want 4 matcher steps in the plan, got %d:\n%v", step, rows)
	}
}

// countdownCtx is a live context whose Err turns to DeadlineExceeded at
// its expireAt-th call (never when expireAt is 0); n counts the calls.
type countdownCtx struct {
	context.Context
	expireAt int64
	n        atomic.Int64
}

func (c *countdownCtx) Err() error {
	if n := c.n.Add(1); c.expireAt > 0 && n >= c.expireAt {
		return context.DeadlineExceeded
	}
	return nil
}

// TestGatherPhaseHonorsDeadline: the gather phase after the sweep polls
// the context once per output column, and a deadline that lands on any
// poll — the gather's included — fails the statement with the deadline
// error instead of returning rows.
func TestGatherPhaseHonorsDeadline(t *testing.T) {
	e := denseEngine(t, 40, 4, func(o *Options) { o.Workers = 1 })
	polls := func(q string) int64 {
		c := &countdownCtx{Context: context.Background()}
		if _, err := e.WithContext(c).ExecScript(q, nil); err != nil {
			t.Fatal(err)
		}
		return c.n.Load()
	}
	const one = `select a.id from graph def a: N ( ) --link--> def b: N ( )`
	const three = `select a.id, b.id as bid, a.id as aid from graph def a: N ( ) --link--> def b: N ( )`
	n1, n3 := polls(one), polls(three)
	if n3 != n1+2 {
		t.Fatalf("polls: %d for one column, %d for three; want one more per gathered column", n1, n3)
	}
	for k := int64(1); k <= n3; k++ {
		c := &countdownCtx{Context: context.Background(), expireAt: k}
		if _, err := e.WithContext(c).ExecScript(three, nil); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("deadline at poll %d of %d: err = %v, want %v", k, n3, err, ErrDeadlineExceeded)
		}
	}
}
