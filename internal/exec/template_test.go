package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"graql/internal/obs"
	"graql/internal/parser"
)

// runText runs a text the way the server does: a template hit, else the
// parse path followed by a template build offer.
func runText(t *testing.T, e *Engine, src string) (res []Result, hit bool) {
	t.Helper()
	ts := obs.ScanText(src)
	if h := e.ProbeTemplate(src, &ts); h != nil {
		res, err := e.ExecTemplateContext(context.Background(), h, nil)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return res, true
	}
	res = mustExec(t, e, src, nil)
	script, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e.BuildTemplate(src, &ts, script)
	return res, false
}

func TestTemplateHitSharesOnePlan(t *testing.T) {
	e := planCacheEngine(t, 0)
	q := func(id int) string { return fmt.Sprintf("select name from table Items where id = %d", id) }
	for i := 0; i < 2; i++ { // the second sighting builds
		if _, hit := runText(t, e, q(1)); hit {
			t.Fatal("text hit before its template was built")
		}
	}
	_, pmiss0, _, _ := e.PlanCacheStats()
	for id := 1; id <= 3; id++ {
		res, hit := runText(t, e, q(id))
		if !hit {
			t.Fatalf("%q missed", q(id))
		}
		if got, want := cellStr(t, res, 0, 0, 0), []string{"one", "two", "three"}[id-1]; got != want {
			t.Errorf("%q = %s, want %s", q(id), got, want)
		}
	}
	if _, pmiss, _, _ := e.PlanCacheStats(); pmiss != pmiss0 {
		t.Errorf("literal variants analyzed %d more times; want one shared plan", pmiss-pmiss0)
	}
	if hits, misses, _, size := e.TemplateStats(); hits != 3 || misses != 2 || size != 1 {
		t.Errorf("template stats hits=%d misses=%d size=%d, want 3/2/1", hits, misses, size)
	}
}

func TestTemplateCapacityAndChainBounds(t *testing.T) {
	e := planCacheEngine(t, 2)
	for _, col := range []string{"id", "name", "id as k"} {
		for i := 0; i < 2; i++ {
			runText(t, e, fmt.Sprintf("select %s from table Items where id = 1", col))
		}
	}
	if _, _, ev, size := e.TemplateStats(); size != 2 || ev != 1 {
		t.Fatalf("size=%d evictions=%d, want 2 templates after 1 eviction", size, ev)
	}
	if _, hit := runText(t, e, "select id from table Items where id = 2"); hit {
		t.Error("the least recently used template survived eviction")
	}

	// Texts that differ in a structural literal share a shape; the list a
	// probe walks stays bounded, and a full list admits nothing more
	// rather than evicting its members.
	e = planCacheEngine(t, 0)
	top := func(n int) string {
		return fmt.Sprintf("select top %d id from table Items where id > 0 order by id asc", n)
	}
	for n := 1; n <= maxShapeChain+2; n++ {
		runText(t, e, top(n))
		runText(t, e, top(n))
	}
	if _, _, ev, size := e.TemplateStats(); size != maxShapeChain || ev != 0 {
		t.Fatalf("size=%d evictions=%d, want %d templates and no evictions", size, ev, maxShapeChain)
	}
	if _, hit := runText(t, e, top(1)); !hit {
		t.Error("a chain member was evicted")
	}
	if _, hit := runText(t, e, top(maxShapeChain+1)); hit {
		t.Error("a full chain admitted another variant")
	}
}

// Builds cost analyses a miss does not pay, so a text is built only on
// the second sighting of its key within one catalog epoch.
func TestTemplateAdmission(t *testing.T) {
	e := planCacheEngine(t, 0)
	top := func(n, id int) string {
		return fmt.Sprintf("select top %d name from table Items where id = %d", n, id)
	}
	// A structural literal that changes on every request: the shape is
	// built once (on its second text), its variants never.
	for n := 1; n <= 40; n++ {
		runText(t, e, top(n, n%3+1))
	}
	if _, _, _, size := e.TemplateStats(); size != 1 {
		t.Fatalf("%d templates from per-request top N, want 1", size)
	}
	if _, hit := runText(t, e, top(2, 3)); !hit {
		t.Fatal("the shape's template does not serve its own top N")
	}
	// A variant seen twice is built, whatever its slot literals.
	runText(t, e, top(50, 1))
	if _, hit := runText(t, e, top(50, 2)); hit {
		t.Fatal("a variant hit before it was built")
	}
	if _, hit := runText(t, e, top(50, 3)); !hit {
		t.Fatal("a variant seen twice was not built")
	}
	// A sighting does not survive a catalog change.
	q := func(id int) string {
		return fmt.Sprintf("select id from table Items where name <> 'x' and id = %d", id)
	}
	runText(t, e, q(1))
	mustExec(t, e, "insert into Items values (4, 'four')", nil)
	runText(t, e, q(2))
	if _, hit := runText(t, e, q(3)); hit {
		t.Fatal("a sighting from an older catalog epoch admitted a build")
	}
	if _, hit := runText(t, e, q(4)); !hit {
		t.Fatal("two sightings in one epoch did not build")
	}
}

func TestTemplateOffWithPlanCache(t *testing.T) {
	e := planCacheEngine(t, -1)
	for i := 0; i < 2; i++ {
		if _, hit := runText(t, e, "select name from table Items where id = 1"); hit {
			t.Fatal("template hit with the plan cache off")
		}
	}
	if h, m, ev, n := e.TemplateStats(); h|m|ev|n != 0 {
		t.Fatalf("template stats %d/%d/%d/%d with the cache off", h, m, ev, n)
	}
}

// A catalog change between the probe and the statement's planning
// surfaces as ErrTemplateStale before anything runs, and drops the
// template.
func TestTemplateStaleBetweenProbeAndPlan(t *testing.T) {
	e := planCacheEngine(t, 0)
	q := "select name from table Items where id = 1\nselect id from table Items where name = 'two'"
	runText(t, e, q)
	runText(t, e, q)
	ts := obs.ScanText(q)
	h := e.ProbeTemplate(q, &ts)
	if h == nil {
		t.Fatal("no template hit")
	}
	mustExec(t, e, "insert into Items values (4, 'four')", nil)
	res, err := e.ExecTemplateContext(context.Background(), h, nil)
	if !errors.Is(err, ErrTemplateStale) || len(res) != 0 {
		t.Fatalf("results %v, err %v; want none and ErrTemplateStale", res, err)
	}
	if _, _, ev, size := e.TemplateStats(); ev != 1 || size != 0 {
		t.Fatalf("evictions=%d size=%d after a stale hit", ev, size)
	}
}

// A structural string that spells a slot placeholder keeps the text from
// being templated rather than confusing its slow-log rendering.
func TestTemplatePlaceholderSpelledInString(t *testing.T) {
	e := planCacheEngine(t, 0)
	q := func(id int) string {
		return fmt.Sprintf("select id, '%%$1%%' as tag from table Items where id = %d", id)
	}
	runText(t, e, q(1))
	res, _ := runText(t, e, q(2))
	if _, _, _, size := e.TemplateStats(); size != 0 {
		t.Fatal("templated a text whose string spells a placeholder")
	}
	if got := cellStr(t, res, 0, 0, 1); got != "%$1%" {
		t.Errorf("tag = %q", got)
	}
}

func TestSplitSlots(t *testing.T) {
	segs, at, ok := splitSlots("a = %$2% and b < %$1%", 2)
	if !ok || fmt.Sprintf("%q", segs) != `["a = " " and b < " ""]` || fmt.Sprint(at) != "[1 0]" {
		t.Errorf("segs %q at %v ok %v", segs, at, ok)
	}
	for _, bad := range []string{"x %$3%", "x %$%", "x %$1", "x %$a%"} {
		if _, _, ok := splitSlots(bad, 2); ok {
			t.Errorf("%q split", bad)
		}
	}
}
