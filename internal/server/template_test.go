package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/parser"
	"graql/internal/server"
)

// The text template differential: every text runs on a server whose
// engine keeps text templates (the hit path, once a literal variant has
// built one) and on a server with the plan cache, and so templates, off
// (the parse path only). Responses must be identical, and so must what
// the observability sinks record of each statement: the wide event's
// fingerprint, normalized text, kind, code, row counts, WAL bytes and
// workers, and the slow-log entry's script and fingerprint. Only
// plan_hit (the parse-only server has no plan cache) and timings may
// differ. A text is built into a template on its shape's second
// sighting, so each new shape below takes two misses before it hits.

const tmplSetup = `
create table T(id varchar(8), s varchar(16), n integer, f float, d date, b boolean)
create table E(src varchar(8), dst varchar(8), w integer)
create vertex V(id) from table T
create edge link with vertices (V as A, V as B)
from table E
where E.src = A.id and E.dst = B.id
`

const (
	tmplRows = "a,it's,1,1.5,2020-01-01,true\n" +
		"b,x,2,2.5,2021-06-01,false\n" +
		"c,,3,-0.5,2019-12-31,true\n" +
		"z,zz,0,0.0,2022-02-02,false\n" +
		"e,O'Brien,5,1e3,2020-01-01,true\n"
	tmplEdges = "a,b,1\nb,c,2\na,c,3\nc,a,4\nz,a,5\ne,a,6\na,e,7\n"
)

// tmplSide is one server of the differential with its observability
// sinks.
type tmplSide struct {
	srv *server.Server
	eng *exec.Engine
	reg *obs.Registry
	log *lockedBuffer
}

func newTmplSide(t testing.TB, planCache int) *tmplSide {
	t.Helper()
	reg := obs.New()
	reg.EnableTracing(16)
	reg.SetSlowQueryThreshold(time.Nanosecond)
	opts := exec.DefaultOptions()
	opts.Obs = reg
	opts.PlanCache = planCache
	eng := exec.New(opts)
	if _, err := eng.ExecScript(tmplSetup, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("T", strings.NewReader(tmplRows)); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("E", strings.NewReader(tmplEdges)); err != nil {
		t.Fatal(err)
	}
	side := &tmplSide{srv: server.New(eng, ""), eng: eng, reg: reg, log: &lockedBuffer{}}
	reg.SetQueryLogWriter(side.log)
	return side
}

// stmtObs is what the observability sinks saw of one statement.
type stmtObs struct {
	Fingerprint, Query, Kind, Code string
	Rows                           int64
	RowsScanned                    int64 `json:"rows_scanned"`
	WALBytes                       int64 `json:"wal_bytes"`
	Workers                        int64
	SlowScript, SlowFP             string `json:"-"`
}

// run sends one exec request and returns its response with the
// statements' wide events and slow-log entries.
func (s *tmplSide) run(text string, params map[string]server.Param) (*server.Response, []stmtObs) {
	s.log.Reset()
	slowBefore := s.reg.SlowQueryCount()
	resp := s.srv.Do(context.Background(), &server.Request{Op: "exec", Script: text, Params: params})
	var out []stmtObs
	for _, line := range strings.Split(strings.TrimSpace(s.log.String()), "\n") {
		if line == "" {
			continue
		}
		var ev stmtObs
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			panic(err)
		}
		out = append(out, ev)
	}
	slow := s.reg.SlowQueries()
	n := int(s.reg.SlowQueryCount() - slowBefore)
	for i, q := range slow[len(slow)-n:] {
		if i < len(out) {
			out[i].SlowScript, out[i].SlowFP = q.Script, q.Fingerprint
		}
	}
	return resp, out
}

func (s *tmplSide) templateHits() int64 {
	h, _, _, _ := s.eng.TemplateStats()
	return h
}

// tmplPair is the differential: a templating server and a parse-only one.
type tmplPair struct {
	t          *testing.T
	warm, cold *tmplSide
}

func newTmplPair(t *testing.T) *tmplPair {
	return &tmplPair{t: t, warm: newTmplSide(t, 0), cold: newTmplSide(t, -1)}
}

// check runs text on both servers, requires identical responses and
// observations, and reports whether the warm server served it from a
// template.
func (p *tmplPair) check(text string, params map[string]server.Param) (hit bool) {
	p.t.Helper()
	before := p.warm.templateHits()
	wr, wobs := p.warm.run(text, params)
	hit = p.warm.templateHits() > before
	cr, cobs := p.cold.run(text, params)
	wr.ElapsedUs, cr.ElapsedUs = 0, 0
	wr.TraceID, cr.TraceID = "", ""
	if !reflect.DeepEqual(wr, cr) {
		p.t.Fatalf("%q (hit=%v): responses differ\ntemplate: %+v\nparse:    %+v", text, hit, wr, cr)
	}
	if !reflect.DeepEqual(wobs, cobs) {
		p.t.Fatalf("%q (hit=%v): observations differ\ntemplate: %+v\nparse:    %+v", text, hit, wobs, cobs)
	}
	return hit
}

// expect runs texts in order, requiring each to hit or miss as given.
func (p *tmplPair) expect(params map[string]server.Param, steps ...any) {
	p.t.Helper()
	for i := 0; i < len(steps); i += 2 {
		text, want := steps[i].(string), steps[i+1].(bool)
		if got := p.check(text, params); got != want {
			p.t.Fatalf("%q: template hit = %v, want %v", text, got, want)
		}
	}
}

const hit, miss = true, false

func TestTextTemplateDifferential(t *testing.T) {
	p := newTmplPair(t)

	t.Run("string escapes", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select id, s from table T where s = 'it''s'`, miss,
			`select id, s from table T where s = 'O''Brien'`, miss, // the second sighting builds
			`select id, s from table T where s = ''''`, hit,
			`select id, s from table T where s = ''`, hit,
			`select id, s from table T where s = 'x'`, hit,
			`select id, s from table T where s = 'it''s'`, hit,
		)
	})
	t.Run("numbers", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select id from table T where n > 1 and f < 2.0`, miss,
			`select id from table T where n > 0 and f < 1.25`, miss,
			`select id from table T where n > 007 and f < 1e3`, hit, // an exponent makes a float, like 2.0
			`select id from table T where n > 2 and f < 2.5e-1`, hit,
			`select id from table T where n > 3 and f < 3`, miss, // float → int literal: a new shape
			`select id from table T where n > 5 and f < 1`, miss,
			`select id from table T where n > 4 and f < 0`, hit,
		)
	})
	t.Run("dates", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select id from table T where d >= date '2020-01-01' and n > 0`, miss,
			`select id from table T where d >= date '2020-01-01' and n > 2`, miss,
			`select id from table T where d >= date '2020-01-01' and n > 1`, hit,
			`select id from table T where d >= date '2021-01-01' and n > 1`, miss, // date '…' is structural
			// A string compared to a date column is coerced by analysis,
			// so it stays structural.
			`select id from table T where d < '2021-01-01' and id <> 'q'`, miss,
			`select id from table T where d < '2021-01-01' and id <> 'b'`, miss,
			`select id from table T where d < '2021-01-01' and id <> 'a'`, hit,
			`select id from table T where d < '2020-06-01' and id <> 'a'`, miss,
			`select id from table T where d < 'not a date' and id <> 'a'`, miss,
			// A structural variant is built on its own second sighting.
			`select id from table T where d < '2020-06-01' and id <> 'b'`, miss,
			`select id from table T where d < '2020-06-01' and id <> 'c'`, hit,
			`select id from table T where d < '2021-01-01' and id <> 'c'`, hit,
		)
	})
	t.Run("negative null true false", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select id from table T where n > -3 and s <> 'q'`, miss,
			`select id from table T where n > -3 and s <> 'y'`, miss,
			`select id from table T where n > -3 and s <> 'x'`, hit,
			`select id from table T where n > -1 and s <> 'x'`, miss, // a negated number is structural
			`select id from table T where b = true and n >= 1`, miss,
			`select id from table T where b = true and n >= 2`, miss,
			`select id from table T where b = true and n >= 3`, hit,
			`select id from table T where b = false and n >= 3`, miss,
			`select id from table T where s = null or n = 2`, miss,
			`select id from table T where s = null or n = 1`, miss,
			`select id from table T where s = null or n = 3`, hit,
		)
	})
	t.Run("structural literals", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select top 2 id, n * 2 as dbl from table T where n + 1 > 2 and id <> 'q' order by id desc`, miss,
			`select top 2 id, n * 2 as dbl from table T where n + 1 > 2 and id <> 'a' order by id desc`, miss,
			`select top 2 id, n * 2 as dbl from table T where n + 1 > 2 and id <> 'b' order by id desc`, hit,
			`select top 3 id, n * 2 as dbl from table T where n + 1 > 2 and id <> 'b' order by id desc`, miss,
			`select top 2 id, n * 3 as dbl from table T where n + 1 > 2 and id <> 'b' order by id desc`, miss,
			`select top 2 id, n * 2 as dbl from table T where n + 2 > 2 and id <> 'b' order by id desc`, miss,
			`select top 3 id, n * 2 as dbl from table T where n + 1 > 2 and id <> 'c' order by id desc`, miss,
			`select top 3 id, n * 2 as dbl from table T where n + 1 > 2 and id <> 'b' order by id desc`, hit,
		)
	})
	t.Run("constant comparisons fold", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select id from table T where 'r1' <> 'b1' and id = 'a' and 7 > 1`, miss,
			`select id from table T where 'r3' <> 'b3' and id = 'b' and 7 > 1`, miss,
			`select id from table T where 'r2' <> 'r2' and id = 'a' and 7 > 1`, hit,
			`select id from table T where 'r2' <> 'b2' and id = 'c' and 7 > 9`, hit,
			`select id from table T where 'x' = 'x' or 10 / n > 1`, miss,
			`select id from table T where 'y' = 'y' or 10 / n > 1`, miss,
			`select id from table T where 'x' = 'y' or 10 / n > 1`, hit, // now evaluates 10 / 0
		)
	})
	t.Run("parameters", func(t *testing.T) {
		p.t = t
		text := func(lit string) string {
			return fmt.Sprintf(`select id, n from table T where id = %%who%% or n < %s`, lit)
		}
		p.check(text("0"), map[string]server.Param{"who": {Type: "varchar", Value: "a"}})
		for _, who := range []string{"a", "b", "zz"} {
			params := map[string]server.Param{"who": {Type: "varchar", Value: who}}
			p.check(text("1"), params)
			if !p.check(text("3"), params) {
				t.Fatalf("%s with who=%s missed", text("3"), who)
			}
		}
		// A user parameter never takes a slot's name.
		params := map[string]server.Param{"who": {Type: "varchar", Value: "a"}, "$1": {Type: "integer", Value: "9"}}
		p.check(text("2"), params)
		// Unbound: the same error either way.
		p.check(text("2"), nil)
	})
	t.Run("variants miss", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select id from table T where n = 1`, miss,
			`select id from table T where n = 3`, miss,
			`select id from table T where n = 2`, hit,
			`SELECT id from table T where n = 2`, miss,
			`select id  from table T where n = 2`, miss,
			`select id from table T where n = 2 // tail`, miss,
			`select id /* c */ from table T where n = 2`, miss,
			`select id from table T where n=2`, miss,
		)
	})
	t.Run("front-end errors", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select id from table T where s = 'abc'`, miss,
			`select id from table T where s = 'abd'`, miss,
			`select id from table T where s = 'abc`, miss, // unterminated
			`select id from table T where n = 1`, hit,
			`select id from table T where n = 99999999999999999999`, miss, // overflow
			`select id from table T where n = 1 /* open`, miss,
			`select id from table T where n = 1 $`, miss,
		)
	})
	t.Run("kind changes", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select id from table T where 'a' = 'b'`, miss,
			`select id from table T where 'a' = 1`, miss, // a type error
			`select id from table T where 'b' = 'b'`, miss,
			`select id from table T where 'a' = 'a'`, hit,
			`select id from table T where s = 1`, miss, // a type error
			`select id from table T where f = 1`, miss,
			`select id from table T where f = 3`, miss,
			`select id from table T where f = 2`, hit,
			`select id from table T where f = 2.5`, miss,
		)
	})
	t.Run("graph steps", func(t *testing.T) {
		p.t = t
		p.expect(nil,
			`select A.id as a, B.id as b from graph def A: V (id = 'a') --link(w > 0)--> def B: V (n < 9)`, miss,
			`select A.id as a, B.id as b from graph def A: V (id = 'z') --link(w > 0)--> def B: V (n < 9)`, miss,
			`select A.id as a, B.id as b from graph def A: V (id = 'b') --link(w > 1)--> def B: V (n < 3)`, hit,
			`select A.id as a, B.id as b from graph def A: V ('p' = 'q' or id = 'a') --link(w > 0)--> def B: V ('x' = 'x')`, miss,
			`select A.id as a, B.id as b from graph def A: V ('p' = 'q' or id = 'b') --link(w > 0)--> def B: V ('x' = 'x')`, miss,
			`select A.id as a, B.id as b from graph def A: V ('p' = 'p' or id = 'a') --link(w > 0)--> def B: V ('x' = 'y')`, hit,
			`select A.id as a, B.id as b from graph def A: V ('p' = 'q' or id = 'e') --link(w > 0)--> def B: V ('x' = 'x')`, hit,
		)
	})
	t.Run("two statements, second fails", func(t *testing.T) {
		p.t = t
		two := func(k string) string {
			return fmt.Sprintf("select id from table T where n > 1\nselect id from table T where id = '%s' and 10 / n > 1", k)
		}
		p.expect(nil, two("a"), miss, two("c"), miss, two("a"), hit)
		resp, _ := p.warm.run(two("z"), nil)
		if resp.OK || len(resp.Results) != 1 || !strings.HasPrefix(resp.Error, "statement 2:") {
			t.Fatalf("failing second statement: %+v", resp)
		}
		p.expect(nil, two("z"), hit)
	})
	t.Run("never templated", func(t *testing.T) {
		p.t = t
		_, _, _, before := p.warm.eng.TemplateStats()
		for i := 0; i < 2; i++ {
			p.expect(nil,
				fmt.Sprintf(`explain select id from table T where n = %d`, i), miss,
				fmt.Sprintf(`select id from table T where n = %d into table R%d`, i, i), miss,
			)
		}
		// EXPLAIN ANALYZE reports timings and plan-cache state, so it is
		// not compared across the two servers.
		for i := 0; i < 2; i++ {
			p.warm.run(fmt.Sprintf(`explain analyze select id from table T where n = %d`, i), nil)
		}
		if _, _, _, after := p.warm.eng.TemplateStats(); after != before {
			t.Fatalf("explain/into built templates: %d → %d", before, after)
		}
	})
	t.Run("after DDL and DML", func(t *testing.T) {
		p.t = t
		q := func(k string) string { return fmt.Sprintf(`select id, n from table T where n >= %s`, k) }
		// Each catalog change makes the template stale; the shape is
		// sighted twice again before it is rebuilt.
		p.expect(nil, q("1"), miss, q("2"), miss, q("3"), hit)
		p.check(`insert into T values ('y', 'new', 7, 7.5, date '2023-01-01', true)`, nil)
		p.expect(nil, q("3"), miss, q("4"), miss, q("5"), hit)
		p.check(`create table U(k integer)`, nil)
		p.expect(nil, q("5"), miss, q("9"), miss, q("0"), hit)
		// A sighting before a catalog change does not count after it.
		p.check(`update T set n = 9 where id = 'y'`, nil)
		p.expect(nil, q("6"), miss)
		p.check(`update T set n = 8 where id = 'y'`, nil)
		p.expect(nil, q("6"), miss, q("7"), miss, q("8"), hit)
		p.check(`delete from T where id = 'y'`, nil)
		p.expect(nil, q("8"), miss, q("2"), miss, q("1"), hit)
	})
	t.Run("result table schema change", func(t *testing.T) {
		p.t = t
		// R's column c is a string at first: its literal is a slot. Once
		// R is re-registered with a date column, the same text coerces,
		// so the template from the old catalog must not serve it.
		p.check(`select s as c from table T where n = 1 into table R`, nil)
		q := func(lit string) string { return fmt.Sprintf(`select c from table R where c = '%s'`, lit) }
		p.expect(nil, q("x"), miss, q("y"), miss, q("it''s"), hit)
		p.check(`select d as c from table T where n = 1 into table R`, nil)
		p.expect(nil, q("2020-01-01"), miss, q("2020-01-01"), miss, q("2020-01-01"), hit, q("2020-01-02"), miss)
	})
}

// A template built by one request serves concurrent first hits.
func TestTextTemplateConcurrentFirstHits(t *testing.T) {
	p := newTmplPair(t)
	q := func(i int) string {
		return fmt.Sprintf(`select id, n from table T where n > %d and s <> 'v%d'`, i%4, i)
	}
	p.check(q(0), nil)
	p.check(q(1), nil)
	want := make([]*server.Response, 32)
	for i := range want {
		want[i] = p.cold.srv.Do(context.Background(), &server.Request{Op: "exec", Script: q(i)})
		want[i].ElapsedUs, want[i].TraceID = 0, ""
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(want))
	for i := range want {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := p.warm.srv.Do(context.Background(), &server.Request{Op: "exec", Script: q(i)})
			got.ElapsedUs, got.TraceID = 0, ""
			if !reflect.DeepEqual(got, want[i]) {
				errs <- fmt.Sprintf("%q: %+v, want %+v", q(i), got, want[i])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if hits, _, _, _ := p.warm.eng.TemplateStats(); hits < int64(len(want)) {
		t.Errorf("%d template hits for %d requests", hits, len(want))
	}
}

// FuzzTextTemplate: literal variants of a seed corpus answer identically
// from a template and from the parse path.
func FuzzTextTemplate(f *testing.F) {
	shapes := []string{
		`select id, s from table T where s = %s and n > %s`,
		`select id from table T where f < %s or id = %s`,
		`select A.id as a, B.id as b from graph def A: V (id = %s) --link(w > %s)--> def B: V ( )`,
		`select top 3 id from table T where %s <> %s and d >= date '2020-01-01' order by id asc`,
	}
	f.Add(uint8(0), `'x'`, `1`)
	f.Add(uint8(1), `2.5`, `'b'`)
	f.Add(uint8(2), `'a'`, `0`)
	f.Add(uint8(3), `'p'`, `'q'`)
	f.Add(uint8(0), `'it''s'`, `99999999999999999999`)
	f.Add(uint8(1), `1e308`, `''`)
	f.Add(uint8(3), `1`, `1.0`)
	var once sync.Once
	var warm, cold *tmplSide
	f.Fuzz(func(t *testing.T, shape uint8, a, b string) {
		once.Do(func() {
			warm, cold = newTmplSide(t, 0), newTmplSide(t, -1)
			// Build the templates the variants probe: a shape is built
			// on its second sighting.
			for _, s := range shapes {
				for _, lits := range [][2]string{{`'a'`, `1`}, {`'b'`, `2`}, {`'a'`, `'b'`}, {`'c'`, `'d'`}} {
					warm.srv.Do(context.Background(), &server.Request{Op: "exec", Script: fmt.Sprintf(s, lits[0], lits[1])})
				}
			}
		})
		text := fmt.Sprintf(shapes[int(shape)%len(shapes)], a, b)
		// Stay with literal variants: a single statement of bounded size
		// (a fuzzed literal can splice in writes or unbounded paths).
		if len(a) > 24 || len(b) > 24 {
			t.Skip()
		}
		if sc, err := parser.Parse(text); err == nil && len(sc.Stmts) != 1 {
			t.Skip()
		}
		wr, wobs := warm.run(text, nil)
		cr, cobs := cold.run(text, nil)
		wr.ElapsedUs, cr.ElapsedUs = 0, 0
		wr.TraceID, cr.TraceID = "", ""
		if !reflect.DeepEqual(wr, cr) {
			t.Fatalf("%q: responses differ\ntemplate: %+v\nparse:    %+v", text, wr, cr)
		}
		if !reflect.DeepEqual(wobs, cobs) {
			t.Fatalf("%q: observations differ\ntemplate: %+v\nparse:    %+v", text, wobs, cobs)
		}
	})
}
