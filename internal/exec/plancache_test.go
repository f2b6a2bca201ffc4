package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"graql/internal/ast"
	"graql/internal/ir"
)

// planCacheEngine builds an engine with the given plan-cache capacity
// (0 = default, negative = disabled) over a small Items table.
func planCacheEngine(t *testing.T, capacity int) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = 2
	opts.PlanCache = capacity
	e := New(opts)
	mustExec(t, e, `
create table Items(id integer, name varchar(16))
insert into Items values (1, 'one'), (2, 'two'), (3, 'three')
`, nil)
	return e
}

func cellStr(t *testing.T, res []Result, stmt, row, col int) string {
	t.Helper()
	if stmt >= len(res) || res[stmt].Table == nil {
		t.Fatalf("statement %d has no table result: %+v", stmt, res)
	}
	return res[stmt].Table.Value(uint32(row), col).String()
}

func TestPlanCacheHitOnRepeat(t *testing.T) {
	e := planCacheEngine(t, 0)
	q := `select name from table Items where id = 1`

	mustExec(t, e, q, nil)
	hits, misses, _, size := e.PlanCacheStats()
	if hits != 0 || misses != 1 || size != 1 {
		t.Fatalf("after first exec: hits=%d misses=%d size=%d, want 0/1/1", hits, misses, size)
	}

	res := mustExec(t, e, q, nil)
	if got := cellStr(t, res, 0, 0, 0); got != "one" {
		t.Fatalf("cached plan returned %q, want %q", got, "one")
	}
	hits, misses, _, size = e.PlanCacheStats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("after second exec: hits=%d misses=%d size=%d, want 1/1/1", hits, misses, size)
	}
}

// Literal variants share a fingerprint (normalization collapses
// literals) but must each own a cache entry: folding bakes the literal
// into the plan.
func TestPlanCacheLiteralVariantsOwnEntries(t *testing.T) {
	e := planCacheEngine(t, 0)
	q1 := `select name from table Items where id = 1`
	q2 := `select name from table Items where id = 2`

	mustExec(t, e, q1, nil)
	mustExec(t, e, q2, nil)
	_, misses, _, size := e.PlanCacheStats()
	if misses != 2 || size != 2 {
		t.Fatalf("misses=%d size=%d, want 2/2 (one entry per literal variant)", misses, size)
	}

	r1 := mustExec(t, e, q1, nil)
	r2 := mustExec(t, e, q2, nil)
	if got := cellStr(t, r1, 0, 0, 0); got != "one" {
		t.Errorf("q1 from cache = %q, want one", got)
	}
	if got := cellStr(t, r2, 0, 0, 0); got != "two" {
		t.Errorf("q2 from cache = %q, want two", got)
	}
	hits, _, _, _ := e.PlanCacheStats()
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
}

// IR-decoded statements carry no source text, so the cache keys them on
// their rendering: an integer and an integral float literal must render
// apart, or n / 2.0 would be served the integer-division plan of n / 2.
func TestPlanCacheIntAndFloatLiteralsOwnEntries(t *testing.T) {
	e := planCacheEngine(t, 0)
	run := func(q string) string {
		t.Helper()
		blob, err := ir.Encode(&ast.Script{Stmts: []ast.Stmt{mustParseStmt(t, q)}})
		if err != nil {
			t.Fatal(err)
		}
		script, err := e.DecodeIR(blob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.ExecStmt(script.Stmts[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table.Value(0, 0).String()
	}
	if got := run(`select id / 2 as h from table Items where id = 3`); got != "1" {
		t.Errorf("id / 2 = %s, want 1", got)
	}
	if got := run(`select id / 2.0 as h from table Items where id = 3`); got != "1.5" {
		t.Errorf("id / 2.0 after id / 2 = %s, want 1.5", got)
	}
}

// A committed DML mutation bumps the catalog epoch; the next execution
// of a cached shape must drop the stale entry and re-plan against the
// new catalog version — never serve the old plan.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	e := planCacheEngine(t, 0)
	q := `select count(*) as c from table Items`

	res := mustExec(t, e, q, nil)
	if got := cellStr(t, res, 0, 0, 0); got != "3" {
		t.Fatalf("initial count = %s, want 3", got)
	}
	mustExec(t, e, q, nil) // warm hit
	hits, misses, evictions, _ := e.PlanCacheStats()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("pre-DML stats hits=%d misses=%d evictions=%d, want 1/1/0", hits, misses, evictions)
	}

	mustExec(t, e, `insert into Items values (4, 'four')`, nil)

	res = mustExec(t, e, q, nil)
	if got := cellStr(t, res, 0, 0, 0); got != "4" {
		t.Fatalf("count after insert = %s, want 4 (stale plan served?)", got)
	}
	hits, misses, evictions, _ = e.PlanCacheStats()
	if hits != 1 || misses != 2 || evictions != 1 {
		t.Fatalf("post-DML stats hits=%d misses=%d evictions=%d, want 1/2/1", hits, misses, evictions)
	}
}

func TestPlanCacheCapacityEviction(t *testing.T) {
	e := planCacheEngine(t, 2)
	queries := []string{
		`select id from table Items`,
		`select name from table Items`,
		`select id, name from table Items`,
	}
	for _, q := range queries {
		mustExec(t, e, q, nil)
	}
	_, misses, evictions, size := e.PlanCacheStats()
	if size != 2 || evictions != 1 || misses != 3 {
		t.Fatalf("after 3 shapes at cap 2: misses=%d evictions=%d size=%d, want 3/1/2", misses, evictions, size)
	}
	// The least recently used shape (queries[0]) was the victim: running
	// it again is a miss, not a hit.
	mustExec(t, e, queries[0], nil)
	hits, misses, _, _ := e.PlanCacheStats()
	if hits != 0 || misses != 4 {
		t.Fatalf("re-run of evicted shape: hits=%d misses=%d, want 0/4", hits, misses)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	e := planCacheEngine(t, -1)
	q := `select name from table Items where id = 2`
	for i := 0; i < 2; i++ {
		res := mustExec(t, e, q, nil)
		if got := cellStr(t, res, 0, 0, 0); got != "two" {
			t.Fatalf("run %d: got %q, want two", i, got)
		}
	}
	hits, misses, evictions, size := e.PlanCacheStats()
	if hits != 0 || misses != 0 || evictions != 0 || size != 0 {
		t.Fatalf("disabled cache counted: %d/%d/%d/%d", hits, misses, evictions, size)
	}
}

// TestConcurrentPrepareExecuteDML hammers one engine with concurrent
// prepared executes, fresh prepares and DML writers (run under -race by
// CI). The correctness property: a prepared execute may observe any
// committed prefix of the writes, but counts seen by one goroutine never
// go backwards, and once the writers are done an execute must see every
// row — the catalog epoch swap can never serve a stale plan over the
// superseded table version.
func TestConcurrentPrepareExecuteDML(t *testing.T) {
	e := planCacheEngine(t, 0)
	p, err := e.Prepare(`select count(*) as c from table Items`)
	if err != nil {
		t.Fatal(err)
	}

	const base = 3 // rows seeded by planCacheEngine
	const writers, perWriter = 2, 20
	stop := make(chan struct{})
	fail := make(chan string, 16)

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			last := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.ExecPrepared(p, nil)
				if err != nil {
					fail <- fmt.Sprintf("reader %d: %v", r, err)
					return
				}
				n := res[0].Table.Value(0, 0).Int()
				if n < last {
					fail <- fmt.Sprintf("reader %d: count went backwards %d -> %d", r, last, n)
					return
				}
				if n < base || n > base+writers*perWriter {
					fail <- fmt.Sprintf("reader %d: count %d outside [%d, %d]", r, n, base, base+writers*perWriter)
					return
				}
				last = n
			}
		}(r)
	}

	// Fresh prepares race the executes and the writers too: prepare runs
	// eager analysis under the catalog read lock.
	var preparers sync.WaitGroup
	preparers.Add(1)
	go func() {
		defer preparers.Done()
		for i := 0; i < 10; i++ {
			if _, err := e.Prepare(`select id from table Items where id = 1`); err != nil {
				fail <- fmt.Sprintf("concurrent prepare: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ins := fmt.Sprintf(`insert into Items values (%d, 'w%d')`, 100+w*perWriter+i, w)
				if _, err := e.ExecScript(ins, nil); err != nil {
					fail <- fmt.Sprintf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	preparers.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// Every committed write must now be visible through the prepared
	// handle: an execute after DML re-plans rather than serving the plan
	// bound to the pre-write catalog.
	res, err := e.ExecPrepared(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res[0].Table.Value(0, 0).Int(); n != base+writers*perWriter {
		t.Fatalf("final count = %d, want %d", n, base+writers*perWriter)
	}
}

// pointsInto reports whether string s aliases any byte of buf's backing
// array — the heap check behind the no-pinning tests.
func pointsInto(s, buf string) bool {
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	sp := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	b0 := uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	return sp >= b0 && sp < b0+uintptr(len(buf))
}

// A prepared handle must not retain the script buffer it was prepared
// from: the handle is long-lived (the server registry holds it), the
// buffer may be a huge request body.
func TestPreparedHandleDoesNotPinSourceBuffer(t *testing.T) {
	e := planCacheEngine(t, 0)
	// Build the source at runtime (no compile-time interning) with a fat
	// literal so aliasing any part of it would pin kilobytes.
	pad := strings.Repeat("x", 4096)
	src := `select name from table Items where id = 1 and name <> '` + pad + `'`
	p, err := e.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if pointsInto(p.Text(), src) {
		t.Error("Prepared.Text aliases the source script buffer")
	}
	for i, id := range p.ids {
		if pointsInto(id.script, src) {
			t.Errorf("ids[%d].script aliases the source script buffer", i)
		}
		if pointsInto(id.norm, src) {
			t.Errorf("ids[%d].norm aliases the source script buffer", i)
		}
	}
}

// Plan-cache entries outlive the request that created them, so neither
// the key text nor anything the detached re-plan produced may alias the
// per-run script buffer.
func TestPlanCacheDoesNotPinScriptBuffer(t *testing.T) {
	e := planCacheEngine(t, 0)
	pad := strings.Repeat("y", 4096)
	src := `select name from table Items where id = 2 and name <> '` + pad + `'`
	mustExec(t, e, src, nil)

	e.plans.mu.Lock()
	defer e.plans.mu.Unlock()
	if len(e.plans.m) == 0 {
		t.Fatal("query was not cached")
	}
	for key := range e.plans.m {
		if pointsInto(key.text, src) {
			t.Error("plan cache key text aliases the script buffer")
		}
	}
}
