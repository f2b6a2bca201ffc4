package exec

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"graql/internal/ast"
	"graql/internal/ir"
	"graql/internal/obs"
	"graql/internal/sema"
)

// The plan cache closes the gap ROADMAP item 1 calls "the single biggest
// lever": without it every request re-lexes, re-parses, re-analyzes and
// re-plans its script. The cache maps a read-only select statement to its
// analyzed plan (*sema.Select) so repeated shapes skip the whole
// front-end after the first execution — for both unprepared `exec`
// traffic and the prepared execute path, which share this cache.
//
// Keying. The primary key is the statement's fingerprint
// (obs.Fingerprint: literals and parameters normalized away) plus its
// exact raw text. The text is part of the key, not just a guard, because
// normalization deliberately collapses literals: "where price < 100" and
// "where price < 200" share a fingerprint but need different folded
// plans, so each literal variant owns its own entry and neither thrashes
// the other. The exact-text match also makes FNV-1a collisions harmless.
//
// Invalidation. Every entry records the catalog epoch it was planned
// under. Committed mutations (DDL, DML, ingest, select-into) bump the
// epoch under the catalog write lock, so a reader that finds an entry
// with a stale epoch knows its table and view pointers refer to a
// superseded catalog version; the entry is dropped on access and the
// statement re-plans. Lookups happen under the catalog read lock, which
// writers exclude, so an entry observed fresh stays valid for the whole
// execution that follows.

// defaultPlanCacheCap bounds the cache when Options.PlanCache is 0.
const defaultPlanCacheCap = 256

// planKey identifies one cached plan: statement fingerprint plus the
// exact raw statement text (see the keying note above).
type planKey struct {
	fp   uint64
	text string
}

// planEntry is one cached plan with the catalog epoch it binds to.
type planEntry struct {
	key   planKey
	epoch uint64
	sel   *sema.Select
	elem  *list.Element
}

// planCache is the engine's bounded LRU of analyzed read-only selects.
// It is shared by every shallow fork of an engine (one pointer, set at
// New), so the per-run forks of ExecScript and the prepared execute path
// all hit the same cache.
type planCache struct {
	mu  sync.Mutex
	cap int
	m   map[planKey]*planEntry
	lru *list.List // front = most recently used

	// Totals are always counted (tests, EXPLAIN ANALYZE and the E15
	// ablation read them); the obs counters additionally export them as
	// graql_plancache_{hits,misses,evictions}_total when a registry is
	// configured. Evictions count both capacity evictions and entries
	// dropped because their catalog epoch went stale.
	nhits, nmisses, nevicted atomic.Int64

	hits, misses, evictions *obs.Counter
}

func newPlanCache(capacity int, reg *obs.Registry) *planCache {
	if capacity < 0 {
		return nil // caching disabled
	}
	if capacity == 0 {
		capacity = defaultPlanCacheCap
	}
	c := &planCache{cap: capacity, m: make(map[planKey]*planEntry), lru: list.New()}
	if reg != nil {
		c.hits = reg.Counter("graql_plancache_hits_total", "select statements served from the plan cache")
		c.misses = reg.Counter("graql_plancache_misses_total", "cacheable select statements that had to be analyzed")
		c.evictions = reg.Counter("graql_plancache_evictions_total", "plan cache entries dropped (capacity or stale catalog epoch)")
	}
	return c
}

// get returns the cached plan for (fp, text) when it was planned under
// the given catalog epoch; a stale-epoch entry is dropped on the way.
// The caller must hold the catalog read lock so the epoch cannot move
// while the returned plan is in use.
func (c *planCache) get(fp uint64, text string, epoch uint64) *sema.Select {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[planKey{fp: fp, text: text}]
	if ok && e.epoch != epoch {
		c.removeLocked(e)
		c.nevicted.Add(1)
		c.evictions.Inc()
		ok = false
	}
	if !ok {
		c.nmisses.Add(1)
		c.misses.Inc()
		return nil
	}
	c.lru.MoveToFront(e.elem)
	c.nhits.Add(1)
	c.hits.Inc()
	return e.sel
}

// put stores a freshly analyzed plan. The key text is cloned so the
// entry never retains the per-run script buffer the raw slice points
// into (the span-sliced statement source of stmtSrc).
func (c *planCache) put(fp uint64, text string, epoch uint64, sel *sema.Select) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := planKey{fp: fp, text: text}
	if e, ok := c.m[key]; ok {
		e.epoch, e.sel = epoch, sel
		c.lru.MoveToFront(e.elem)
		return
	}
	key.text = strings.Clone(text)
	e := &planEntry{key: key, epoch: epoch, sel: sel}
	e.elem = c.lru.PushFront(e)
	c.m[key] = e
	for len(c.m) > c.cap {
		victim := c.lru.Back().Value.(*planEntry)
		c.removeLocked(victim)
		c.nevicted.Add(1)
		c.evictions.Inc()
	}
}

func (c *planCache) removeLocked(e *planEntry) {
	c.lru.Remove(e.elem)
	delete(c.m, e.key)
}

// peekFP reports whether any entry with this fingerprint is cached under
// the given epoch, without touching the LRU order or the counters.
// EXPLAIN ANALYZE uses it to render the hit/miss plan row: fingerprint
// normalization collapses the explain prefix's formatting, so matching
// on fingerprint alone answers "is this shape warm" across the raw-text
// variants of the same query.
func (c *planCache) peekFP(fp uint64, epoch uint64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.m {
		if key.fp == fp && e.epoch == epoch {
			return true
		}
	}
	return false
}

// PlanCacheStats reports the engine's plan cache counters: hits, misses,
// evictions (capacity plus stale-epoch drops) and the current entry
// count. All zeros when caching is disabled.
func (e *Engine) PlanCacheStats() (hits, misses, evictions, size int64) {
	c := e.plans
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return c.nhits.Load(), c.nmisses.Load(), c.nevicted.Load(), int64(n)
}

// planCacheable reports whether a statement's plan may be reused across
// executions: read-only selects only. Into-selects register results (a
// catalog mutation), and explain variants render plans rather than
// execute them.
func planCacheable(st ast.Stmt) bool {
	sel, ok := st.(*ast.Select)
	if !ok {
		return false
	}
	return sel.Into.Kind == ast.IntoNone && !sel.Explain
}

// planSelect resolves a select statement to its analyzed plan, serving
// cacheable shapes from the plan cache. The caller holds the catalog
// read lock: the epoch read here stays valid for the whole execution
// that follows, because writers bump it only under the full write lock.
func (e *Engine) planSelect(sel *ast.Select) (*sema.Select, error) {
	an := &sema.Analyzer{Cat: e.Cat, NoFold: e.Opts.NoFold}
	if e.plans == nil || !planCacheable(sel) {
		analyzed, err := an.Analyze(sel)
		if err != nil {
			return nil, err
		}
		plan := analyzed.(*sema.Select)
		if err := e.verifyPlanDue(plan, "plan"); err != nil {
			return nil, err
		}
		return plan, nil
	}
	fp, raw := e.planIdentity(sel)
	epoch := e.Cat.Epoch()
	if a := e.acct; a != nil && a.tmpl != nil && a.tmpl.epoch != epoch {
		return nil, ErrTemplateStale
	}
	if cached := e.plans.get(fp, raw, epoch); cached != nil {
		// A cached plan outlives the statement that built it, so verify on
		// the hit path too: a corruption bug anywhere in cache invalidation
		// surfaces here as a loud error instead of a wrong answer.
		if err := e.verifyPlanDue(cached, "plan-cache"); err != nil {
			return nil, err
		}
		e.acct.notePlanHit()
		return cached, nil
	}
	analyzed, err := an.Analyze(sel)
	if err != nil {
		return nil, err
	}
	plan := analyzed.(*sema.Select)
	if err := e.verifyPlanDue(plan, "plan"); err != nil {
		return nil, err
	}
	if !sel.Span().Known() {
		// The statement was materialized from IR (the server's front-end
		// path) or built programmatically: its strings are fresh
		// allocations, so the analyzed plan can be cached as-is.
		e.plans.put(fp, raw, epoch, plan)
	} else if detached := e.replanDetached(an, sel); detached != nil {
		// Parsed statements slice their identifiers out of the script
		// source, so caching this plan directly would pin the whole
		// script buffer for the entry's lifetime. Round-tripping the
		// statement through the IR codec re-materializes it with fresh
		// strings; the extra analysis is paid once per miss.
		e.plans.put(fp, raw, epoch, detached)
	}
	return plan, nil
}

// planIdentity returns the statement's cache identity: the fingerprint
// and raw source text, reusing the accounting record's values when the
// observability layer already computed them.
func (e *Engine) planIdentity(st ast.Stmt) (uint64, string) {
	if a := e.acct; a != nil {
		return a.fp, a.script
	}
	raw := e.stmtSrc(st, "")
	fp, _ := e.met.reg.FingerprintCached(raw)
	return fp, raw
}

// replanDetached re-analyzes the statement from an IR round trip of
// itself, producing a plan whose AST shares no backing memory with the
// running script. Any failure just skips caching (the original plan is
// still returned to the caller).
func (e *Engine) replanDetached(an *sema.Analyzer, sel *ast.Select) *sema.Select {
	blob, err := ir.Encode(&ast.Script{Stmts: []ast.Stmt{sel}})
	if err != nil {
		return nil
	}
	decoded, err := ir.Decode(blob)
	if err != nil || len(decoded.Stmts) != 1 {
		return nil
	}
	analyzed, err := an.Analyze(decoded.Stmts[0])
	if err != nil {
		return nil
	}
	detached, ok := analyzed.(*sema.Select)
	if !ok {
		return nil
	}
	return detached
}
