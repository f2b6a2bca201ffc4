package exec

import (
	"container/list"
	"context"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"graql/internal/ast"
	"graql/internal/diag"
	"graql/internal/expr"
	"graql/internal/ir"
	"graql/internal/obs"
	"graql/internal/sema"
	"graql/internal/value"
)

// Text templates let a text request that differs from an earlier one
// only in literal values skip the whole front end: lexing, parsing, the
// IR round trip and, through the plan cache, analysis.
//
// Keying. obs.ScanText finds a text's literal tokens with the lexer's
// own rules and hashes the text with every literal cut out (the shape).
// A template matches a request when the text outside the literals is
// byte-identical, the literals have the same lexical classes, and every
// structural literal (below) is byte-identical too. Case, whitespace and
// comment variants therefore miss: they share a fingerprint, but a
// byte-identical skeleton is what guarantees the request lexes and
// parses exactly like the text the template was built from.
//
// Slots. A literal becomes a slot — a parameter %$k% no user can write —
// only where analysis cannot depend on its value: a string, integer or
// float constant that is a direct operand of a comparison in a where
// clause or step condition and that analysis does not coerce to a date.
// Everything else (select items, arithmetic operands, top N, regex
// bounds, negated numbers, date '…', true/false/null and %name%
// parameters) is structural. Analysis of a slot sees a parameter;
// execution binds the request's value and folds the bound condition the
// way analysis folds literals (bindCond), so a hit runs the condition the
// parse path would have run.
//
// Lifetime. A template records the catalog epoch it was built under. A
// slot's safety depends on the catalog — a result table replaced with a
// date column turns a plain string comparison into a coerced one — so a
// template from an older epoch is dropped on access, and a statement
// that finds the epoch moved between the probe and its planning falls
// back to the parse path (ErrTemplateStale). The cache is bounded by the
// plan cache's capacity and exists only when the plan cache does.
//
// Admission. A build costs about two analyses on top of the miss it
// follows, so a text is built only on the second sighting of its key in
// one catalog epoch (templateCache.admit): traffic whose structural
// literals change on every request builds at most once per shape, and a
// shape with a full chain admits nothing more.

// ErrTemplateStale reports that the catalog changed under a template
// hit before the statement was planned; the caller runs the statement
// (and the rest of the script) through the parse path instead.
var ErrTemplateStale = errors.New("graql: text template is stale")

// slotPrefix names slot parameters: "%$1%" cannot be written in GraQL
// text (the lexer rejects '$'), so a slot never collides with a user
// parameter.
const slotPrefix = "$"

// paramLookup resolves parameter names for binding: a template
// statement's slots by number, everything else from params.
func (e *Engine) paramLookup(params map[string]value.Value) func(string) (value.Value, bool) {
	if a := e.acct; a != nil && a.tmpl != nil {
		slots := a.slots
		return func(name string) (value.Value, bool) {
			if strings.HasPrefix(name, slotPrefix) {
				if k, err := strconv.Atoi(name[len(slotPrefix):]); err == nil && k >= 1 && k <= len(slots) {
					return slots[k-1], true
				}
			}
			v, ok := params[name]
			return v, ok
		}
	}
	return func(name string) (value.Value, bool) {
		v, ok := params[name]
		return v, ok
	}
}

// tmplStmt is the template part of one statement's identity.
type tmplStmt struct {
	epoch uint64   // catalog epoch the template was built under
	segs  []string // the statement's rendering around its slot placeholders
	at    []int    // at[i] is the slot rendered after segs[i]
}

// literalScript renders the statement with the request's literals: the
// text the parse path would have logged.
func (a *stmtAcct) literalScript() string {
	var sb strings.Builder
	t := a.tmpl
	for i, seg := range t.segs {
		sb.WriteString(seg)
		if i < len(t.at) {
			sb.WriteString((&expr.Const{V: a.slots[t.at[i]]}).String())
		}
	}
	return sb.String()
}

// textTemplate is one cached template.
type textTemplate struct {
	shape uint64
	src   string        // the text it was built from
	lits  []obs.Literal // src's literal tokens
	slot  []int         // per literal: its slot, or -1 when structural
	nslot int
	epoch uint64
	prep  *Prepared // the statements, slots as parameters
	elem  *list.Element
}

// matches reports whether a request text has this template's skeleton
// and structural literals. It compares the stretches between slot
// literals whole: when those are byte-identical and every structural
// literal sits at the same offset in its stretch, the text around the
// literals and the structural literals are byte-identical too, for one
// memory comparison per slot instead of two per literal.
func (t *textTemplate) matches(src string, lits []obs.Literal) bool {
	if len(lits) != len(t.lits) {
		return false
	}
	from, tfrom := 0, 0 // where the current stretch starts
	for i, l := range lits {
		tl := t.lits[i]
		if l.Class != tl.Class {
			return false
		}
		if t.slot[i] < 0 {
			if l.Start-from != tl.Start-tfrom || l.End-from != tl.End-tfrom {
				return false
			}
			continue
		}
		if src[from:l.Start] != t.src[tfrom:tl.Start] {
			return false
		}
		from, tfrom = l.End, tl.End
	}
	return src[from:] == t.src[tfrom:]
}

// slotValues parses the request's slot literals exactly as the parser
// would. ok is false when one would fail to parse (an integer overflow,
// say): the request then takes the parse path, which reports the error.
func (t *textTemplate) slotValues(src string, lits []obs.Literal) ([]value.Value, bool) {
	vals := make([]value.Value, t.nslot)
	for i, l := range lits {
		k := t.slot[i]
		if k < 0 {
			continue
		}
		text := src[l.Start:l.End]
		switch l.Class {
		case obs.LitString:
			vals[k] = value.NewString(strings.ReplaceAll(text[1:len(text)-1], "''", "'"))
		case obs.LitInt:
			n, err := strconv.ParseInt(text, 10, 64)
			if err != nil {
				return nil, false
			}
			vals[k] = value.NewInt(n)
		case obs.LitFloat:
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, false
			}
			vals[k] = value.NewFloat(f)
		}
	}
	return vals, true
}

// maxShapeChain bounds how many templates share one shape.
const maxShapeChain = 8

// templateCache is the engine's bounded LRU of text templates, keyed by
// shape. Texts that differ only in structural literals share a shape, so
// a shape maps to a short list.
type templateCache struct {
	mu  sync.Mutex
	cap int
	m   map[uint64][]*textTemplate
	lru *list.List // front = most recently used
	n   int

	// seen is the admission filter: a direct-mapped table of sighting
	// keys, a power of two long (see admit).
	seen []uint64

	nhits, nmisses, nevicted atomic.Int64
	hits, misses, evictions  *obs.Counter
}

func newTemplateCache(plans *planCache, reg *obs.Registry) *templateCache {
	if plans == nil {
		return nil
	}
	n := 64
	for n < 2*plans.cap {
		n *= 2
	}
	c := &templateCache{cap: plans.cap, m: make(map[uint64][]*textTemplate), lru: list.New(), seen: make([]uint64, n)}
	if reg != nil {
		c.hits = reg.Counter("graql_text_template_hits_total", "text requests served from a text template (no lex, parse or IR round trip)")
		c.misses = reg.Counter("graql_text_template_misses_total", "text requests that found no usable text template")
		c.evictions = reg.Counter("graql_text_template_evictions_total", "text templates dropped (capacity or stale catalog epoch)")
	}
	return c
}

func (c *templateCache) noteMiss() {
	c.nmisses.Add(1)
	c.misses.Inc()
}

// lookup finds the template matching a request text, marking it most
// recently used.
func (c *templateCache) lookup(src string, ts *obs.TextScan) *textTemplate {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.m[ts.Shape] {
		if t.matches(src, ts.Lits) {
			c.lru.MoveToFront(t.elem)
			return t
		}
	}
	return nil
}

func (c *templateCache) put(t *textTemplate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, old := range c.m[t.shape] {
		if old.matches(t.src, t.lits) {
			c.removeLocked(old) // a concurrent build, or a stale epoch
			break
		}
	}
	if len(c.m[t.shape]) >= maxShapeChain {
		return // concurrent builds filled the chain after admission
	}
	t.elem = c.lru.PushFront(t)
	c.m[t.shape] = append(c.m[t.shape], t)
	c.n++
	for c.n > c.cap {
		c.removeLocked(c.lru.Back().Value.(*textTemplate))
		c.nevicted.Add(1)
		c.evictions.Inc()
	}
}

// admit reports whether a text that missed and ran cleanly should be
// built into a template now. The sighting key is the shape while no
// template has it; once one does, it is the shape plus the request's
// structural literals, read through that template's slot map, so each
// structural variant (a top N, a date '…') is counted on its own. The
// catalog epoch is mixed in, and a key is consumed by the build it
// admits. A shape whose chain is full admits nothing: variants beyond
// maxShapeChain stay on the parse path rather than evicting one another
// on every request. Stale templates leave the chain first.
func (c *templateCache) admit(src string, ts *obs.TextScan, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.m[ts.Shape] {
		if t.epoch != epoch {
			c.removeLocked(t)
			c.nevicted.Add(1)
			c.evictions.Inc()
		}
	}
	chain := c.m[ts.Shape]
	if len(chain) >= maxShapeChain {
		return false
	}
	key := (ts.Shape ^ epoch) * fnvPrime64
	if len(chain) > 0 && len(chain[0].slot) == len(ts.Lits) {
		slot := chain[0].slot
		for i, l := range ts.Lits {
			if slot[i] >= 0 {
				continue
			}
			for j := l.Start; j < l.End; j++ {
				key = (key ^ uint64(src[j])) * fnvPrime64
			}
			key = (key ^ 0xff) * fnvPrime64 // a byte no literal ends with
		}
	}
	key |= 1 // 0 marks an empty entry
	at := &c.seen[key&uint64(len(c.seen)-1)]
	if *at == key {
		*at = 0
		return true
	}
	*at = key
	return false
}

// fnvPrime64 is the FNV-1a 64-bit prime, mixing admission keys.
const fnvPrime64 = 1099511628211

// drop removes a stale template if it is still cached.
func (c *templateCache) drop(t *textTemplate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cur := range c.m[t.shape] {
		if cur == t {
			c.removeLocked(t)
			c.nevicted.Add(1)
			c.evictions.Inc()
			return
		}
	}
}

func (c *templateCache) removeLocked(t *textTemplate) {
	c.lru.Remove(t.elem)
	chain := c.m[t.shape]
	for i, cur := range chain {
		if cur == t {
			chain = append(chain[:i:i], chain[i+1:]...)
			break
		}
	}
	if len(chain) == 0 {
		delete(c.m, t.shape)
	} else {
		c.m[t.shape] = chain
	}
	c.n--
}

// TextTemplates reports whether the engine keeps text templates (it
// does exactly when it has a plan cache).
func (e *Engine) TextTemplates() bool { return e.templates != nil }

// TemplateStats reports the text template cache's counters: hits,
// misses, evictions (capacity plus stale-epoch drops) and the current
// template count. All zeros when the cache is off.
func (e *Engine) TemplateStats() (hits, misses, evictions, size int64) {
	c := e.templates
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return c.nhits.Load(), c.nmisses.Load(), c.nevicted.Load(), int64(n)
}

// TemplateHit is a request text matched to a cached template, with the
// request's slot values.
type TemplateHit struct {
	t     *textTemplate
	slots []value.Value
}

// ProbeTemplate looks a text request up in the template cache. It
// returns nil on a miss: no template matches, the match is from an older
// catalog epoch, or a slot literal would not parse.
func (e *Engine) ProbeTemplate(src string, ts *obs.TextScan) *TemplateHit {
	c := e.templates
	if c == nil || !ts.Delimited {
		return nil
	}
	t := c.lookup(src, ts)
	if t == nil {
		c.noteMiss()
		return nil
	}
	e.Cat.RLock()
	epoch := e.Cat.Epoch()
	e.Cat.RUnlock()
	if t.epoch != epoch {
		c.drop(t)
		c.noteMiss()
		return nil
	}
	slots, ok := t.slotValues(src, ts.Lits)
	if !ok {
		c.noteMiss()
		return nil
	}
	c.nhits.Add(1)
	c.hits.Inc()
	return &TemplateHit{t: t, slots: slots}
}

// ExecTemplateContext runs a template hit's statements as
// ExecPreparedContext runs a prepared script, binding the request's slot
// values beside its %name% parameters. ErrTemplateStale means the
// catalog moved before statement len(results)+1 was planned; that
// statement has not run, and the template is dropped.
func (e *Engine) ExecTemplateContext(ctx context.Context, h *TemplateHit, params map[string]value.Value) ([]Result, error) {
	out, err := e.execPrepared(ctx, h.t.prep, params, h.slots)
	if errors.Is(err, ErrTemplateStale) {
		e.templates.drop(h.t)
	}
	return out, err
}

// BuildTemplate offers a text that just ran through the parse path
// without error to the template cache. script is its parse (source spans
// intact, not shared with anything that still runs); a build rewrites
// its slot literals into parameters in place. Only scripts made entirely
// of plan-cacheable selects are templated, only once admitted (see
// templateCache.admit), and a text whose slots cannot be placed safely
// is simply not cached.
func (e *Engine) BuildTemplate(src string, ts *obs.TextScan, script *ast.Script) {
	c := e.templates
	if c == nil || !ts.Delimited || len(script.Stmts) == 0 {
		return
	}
	sels := make([]*ast.Select, len(script.Stmts))
	for i, st := range script.Stmts {
		sel, ok := st.(*ast.Select)
		if !ok || !planCacheable(sel) {
			return
		}
		sels[i] = sel
	}
	e.Cat.RLock()
	admitted := c.admit(src, ts, e.Cat.Epoch())
	e.Cat.RUnlock()
	if !admitted {
		return
	}
	// Slot candidates: direct comparison operands among the conditions'
	// literals, by literal index.
	litAt := func(sp diag.Span) int {
		i := sort.Search(len(ts.Lits), func(i int) bool { return ts.Lits[i].Start >= sp.Start })
		if sp.Known() && i < len(ts.Lits) && ts.Lits[i].Start == sp.Start && ts.Lits[i].End == sp.End {
			return i
		}
		return -1
	}
	slot := make([]int, len(ts.Lits))
	for i := range slot {
		slot[i] = -1
	}
	for _, sel := range sels {
		eachComparisonOperand(sel, func(operand *expr.Expr) {
			if k, ok := (*operand).(*expr.Const); ok && slotKind(k.V) {
				if i := litAt(k.Loc); i >= 0 {
					slot[i] = 0
				}
			}
		})
	}
	// Identity and coercion check, against the catalog the template will
	// be bound to. A literal analysis coerces to a date stays structural.
	ids := make([]stmtIdent, len(sels))
	e.Cat.RLock()
	epoch := e.Cat.Epoch()
	for i, sel := range sels {
		ids[i].script = sel.String()
		ids[i].fp, ids[i].norm = e.met.reg.FingerprintCached(ids[i].script)
		an := &sema.Analyzer{Cat: e.Cat, NoFold: e.Opts.NoFold}
		_, diags := an.Vet(sel)
		if diags.HasErrors() {
			e.Cat.RUnlock()
			return
		}
		for _, d := range diags {
			if d.Code == diag.ImplicitCoercion {
				if i := litAt(d.Span); i >= 0 {
					slot[i] = -1
				}
			}
		}
	}
	e.Cat.RUnlock()
	var names []string
	for i := range slot {
		if slot[i] == 0 {
			slot[i] = len(names)
			names = append(names, slotPrefix+strconv.Itoa(len(names)+1))
		}
	}
	for _, sel := range sels {
		eachComparisonOperand(sel, func(operand *expr.Expr) {
			if k, ok := (*operand).(*expr.Const); ok {
				if i := litAt(k.Loc); i >= 0 && slot[i] >= 0 && slotKind(k.V) {
					*operand = &expr.Param{Name: names[slot[i]], Loc: k.Loc}
				}
			}
		})
	}
	seen := 0
	for i, sel := range sels {
		rendered := sel.String()
		segs, at, ok := splitSlots(rendered, len(names))
		if !ok {
			return // a structural string spells a placeholder
		}
		seen += len(at)
		ids[i].script = rendered
		ids[i].tmpl = &tmplStmt{epoch: epoch, segs: segs, at: at}
	}
	if seen != len(names) {
		return
	}
	// The template runs from verified IR, like every server request; its
	// one-off build always verifies.
	blob, err := ir.Encode(script)
	if err != nil {
		return
	}
	decoded, err := ir.Decode(blob)
	if err != nil {
		return
	}
	if err := ir.Verify(decoded); err != nil {
		e.met.noteIRVerifyFailure()
		return
	}
	prep, err := e.prepareDecoded(blob, decoded.Stmts, ids)
	if err != nil {
		return
	}
	c.put(&textTemplate{
		shape: ts.Shape,
		src:   strings.Clone(src),
		lits:  append([]obs.Literal(nil), ts.Lits...),
		slot:  slot,
		nslot: len(names),
		epoch: epoch,
		prep:  prep,
	})
}

// slotKind reports whether a literal's kind can be a slot.
func slotKind(v value.Value) bool {
	if v.IsNull() {
		return false
	}
	switch v.Kind() {
	case value.KindString, value.KindInt, value.KindFloat:
		return true
	}
	return false
}

// eachComparisonOperand calls f with a pointer to each direct operand of
// every comparison in a select's where clause and step conditions (not
// inside regex groups, whose steps take no conditions).
func eachComparisonOperand(sel *ast.Select, f func(*expr.Expr)) {
	visit := func(cond expr.Expr) {
		expr.Walk(cond, func(n expr.Expr) {
			if b, ok := n.(*expr.Binary); ok && b.Op.Comparison() {
				f(&b.L)
				f(&b.R)
			}
		})
	}
	visit(sel.Where)
	if sel.Graph == nil {
		return
	}
	for _, term := range sel.Graph.Terms {
		for _, path := range term.Paths {
			for _, el := range path.Elems {
				switch s := el.(type) {
				case *ast.VertexStep:
					visit(s.Cond)
				case *ast.EdgeStep:
					visit(s.Cond)
				}
			}
		}
	}
}

// splitSlots cuts a template statement's rendering at its slot
// placeholders. ok is false when the rendering holds a placeholder
// spelling that is not a slot (inside a structural string literal).
func splitSlots(s string, nslots int) (segs []string, at []int, ok bool) {
	prev := 0
	for i := 0; i+1 < len(s); i++ {
		if s[i] != '%' || s[i+1] != '$' {
			continue
		}
		j := i + 2
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == i+2 || j >= len(s) || s[j] != '%' {
			return nil, nil, false
		}
		k, err := strconv.Atoi(s[i+2 : j])
		if err != nil || k < 1 || k > nslots {
			return nil, nil, false
		}
		segs = append(segs, s[prev:i])
		at = append(at, k-1)
		prev = j + 1
		i = j
	}
	return append(segs, s[prev:]), at, true
}
