package exec

import (
	"fmt"
	"time"

	"graql/internal/bitmap"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/plan"
	"graql/internal/sema"
	"graql/internal/value"
)

// NoBind marks an unbound slot in a partial binding.
const NoBind = ^uint32(0)

// matcher enumerates the bindings of one pattern under one concrete
// variant typing, in a planner-chosen order, in parallel over shards of
// the first step's candidate set.
type matcher struct {
	e   *Engine
	g   *graph.Graph
	pat *sema.Pattern

	// Concrete typing for this run (variant steps resolved).
	nodeType []*graph.VertexType
	edgeType []*graph.EdgeType // nil for regex edges

	// Parameter-bound step conditions split into self-only parts
	// (applied inline during candidate generation / expansion) and
	// cross-step parts (deferred until all referenced steps are bound).
	nodeSelf []expr.Expr
	edgeSelf []expr.Expr
	deferred []deferredCond

	// seeds restricts a node's candidates to a prior subgraph result.
	seeds []*bitmap.Bitmap
	// seek[i] is node i's key seek when its self condition has one
	// (seek.go): the node's candidates come from a key lookup, not a scan.
	seek []*keySeek

	order     []plan.Visit
	posOfNode []int
	// verifyAt[d] lists pattern edges that close a cycle once the node
	// at order position d is bound; they are checked (and their edge ids
	// enumerated) at that depth.
	verifyAt [][]*sema.PEdge

	cands []*bitmap.Bitmap // lazily built per-node candidate sets

	// spans traces one operator per order position when the engine runs
	// traced (nil otherwise). spans[d] counts the bindings that survive
	// verification and deferred conditions at depth d; times are
	// inclusive of deeper steps and summed across parallel workers.
	// Workers count into their own wstate.steps and flush per shard.
	spans []*obs.Span

	workers int
}

type deferredCond struct {
	cond  expr.Expr
	depth int
}

// wstate is per-goroutine matcher state: the current partial binding plus
// a cache of regex reachability results.
type wstate struct {
	m *matcher
	b []uint32
	// regexReach caches accepted-target sets per (pattern edge, source
	// vertex, direction).
	regexReach map[regexKey]*bitmap.Bitmap
	// Batched metric counters, flushed per shard (matcher.flush).
	scanned int64 // candidate rows visited
	edges   int64 // edge-index entries walked
	idxHit  int64 // reverse traversals served by a reverse index
	idxMiss int64 // reverse traversals degraded to edge scans
	// tick drives the amortised cooperative cancellation poll (cancel.go);
	// reported is the scanned+edges watermark already pushed to the live
	// query table by that poll.
	tick     uint32
	reported int64
	// steps[d] accounts the span of order position d on a traced run
	// (nil otherwise), flushed per shard like the metric counters.
	steps []stepAcct
}

// stepAcct is one worker's share of a matcher step's span: exact
// surviving rows, and the expand calls of which only every
// stepSampleMask+1-th (the first included) reads the clock.
type stepAcct struct {
	rows, calls, timed, ns int64
}

// stepSampleMask times one expand call in 64 per depth per worker: a
// clock read pair costs about as much as a short expansion, so timing
// every call made traced execution markedly slower than untraced.
const stepSampleMask = 63

type regexKey struct {
	edge    int
	from    uint32
	forward bool
}

// Lookup implements expr.Env over the current binding.
func (w *wstate) Lookup(source, col int) value.Value {
	nn := len(w.m.pat.Nodes)
	if source < nn {
		return w.m.nodeType[source].AttrValue(w.b[source], col)
	}
	ei := source - nn
	return w.m.edgeType[ei].AttrValue(w.b[source], col)
}

// newMatcher prepares a matcher for one concrete typing. Conditions must
// already be parameter-bound.
func (e *Engine) newMatcher(pat *sema.Pattern, nodeType []*graph.VertexType,
	edgeType []*graph.EdgeType, nodeCond, edgeCond []expr.Expr,
	seeds []*bitmap.Bitmap) (*matcher, error) {

	m := &matcher{
		e: e, g: e.Cat.Graph(), pat: pat,
		nodeType: nodeType, edgeType: edgeType,
		seeds:   seeds,
		workers: e.Opts.workers(),
	}
	m.order = plan.Order(pat, &catalogEstimator{m: m, nodeCond: nodeCond})
	m.posOfNode = make([]int, len(pat.Nodes))
	for i, v := range m.order {
		m.posOfNode[v.Node] = i
	}

	// Split conditions into self vs deferred.
	m.nodeSelf = make([]expr.Expr, len(pat.Nodes))
	m.edgeSelf = make([]expr.Expr, len(pat.Edges))
	nn := len(pat.Nodes)
	depthOfSource := func(s int) int {
		if s < nn {
			return m.posOfNode[s]
		}
		e := pat.Edges[s-nn]
		d := m.posOfNode[e.Src]
		if p := m.posOfNode[e.Dst]; p > d {
			d = p
		}
		return d
	}
	for i, cond := range nodeCond {
		for _, c := range expr.Conjuncts(cond) {
			srcs := refSourcesOf(c)
			if len(srcs) == 1 && srcs[0] == i {
				m.nodeSelf[i] = expr.AndAll([]expr.Expr{m.nodeSelf[i], c})
				continue
			}
			d := 0
			for _, s := range srcs {
				if ds := depthOfSource(s); ds > d {
					d = ds
				}
			}
			m.deferred = append(m.deferred, deferredCond{cond: c, depth: d})
		}
	}
	for i, cond := range edgeCond {
		src := nn + i
		for _, c := range expr.Conjuncts(cond) {
			srcs := refSourcesOf(c)
			if len(srcs) == 1 && srcs[0] == src {
				m.edgeSelf[i] = expr.AndAll([]expr.Expr{m.edgeSelf[i], c})
				continue
			}
			d := 0
			for _, s := range srcs {
				if ds := depthOfSource(s); ds > d {
					d = ds
				}
			}
			m.deferred = append(m.deferred, deferredCond{cond: c, depth: d})
		}
	}

	m.seek = make([]*keySeek, len(pat.Nodes))
	for i := range pat.Nodes {
		if ks, ok := vertexSeek(m.nodeSelf[i], i, nodeType[i]); ok {
			m.seek[i] = &ks
		}
	}

	// Verification edges: every pattern edge that is not a Via edge gets
	// checked at the depth its later endpoint is bound.
	used := make([]bool, len(pat.Edges))
	for _, v := range m.order {
		if v.Via >= 0 {
			used[v.Via] = true
		}
	}
	m.verifyAt = make([][]*sema.PEdge, len(m.order))
	for _, pe := range pat.Edges {
		if used[pe.ID] {
			continue
		}
		d := m.posOfNode[pe.Src]
		if p := m.posOfNode[pe.Dst]; p > d {
			d = p
		}
		m.verifyAt[d] = append(m.verifyAt[d], pe)
	}

	m.cands = make([]*bitmap.Bitmap, len(pat.Nodes))
	return m, nil
}

// buildSpans creates one trace span per order position, labelled like the
// corresponding EXPLAIN plan row. It runs lazily from matchAll so the
// chain fast path (which never enumerates) emits its own spans instead.
func (m *matcher) buildSpans() {
	m.spans = make([]*obs.Span, len(m.order))
	for i, v := range m.order {
		name := stepName(m.pat, m.nodeType, v.Node)
		if v.Via < 0 {
			if ks := m.seek[v.Node]; ks != nil {
				m.spans[i] = m.e.opSpan("seek", fmt.Sprintf("start at %s by key %s", name, ks.cond))
			} else {
				m.spans[i] = m.e.opSpan("scan", fmt.Sprintf("start at %s", name))
			}
			continue
		}
		pe := m.pat.Edges[v.Via]
		dir := "forward index"
		if !v.Forward {
			dir = "reverse index"
			if pe.Regex == nil && !m.edgeType[v.Via].HasReverse() {
				dir = "edge scan (no reverse index)"
			}
		}
		edgeName := "[ ]"
		if pe.Regex != nil {
			edgeName = "path-regex (product BFS)"
		} else if m.edgeType[v.Via] != nil {
			edgeName = m.edgeType[v.Via].Name
		}
		m.spans[i] = m.e.opSpan("expand", fmt.Sprintf("bind %s via %s, %s", name, edgeName, dir))
	}
}

// flush drains a worker's batched span and metric counters into the
// shared spans and the engine's registry; called once per shard so hot
// loops only bump local int64s. A step's sampled time is scaled up by
// calls / timed calls into an estimate of its whole time.
func (m *matcher) flush(w *wstate) {
	for d := range w.steps {
		st := &w.steps[d]
		m.spans[d].AddRows(st.rows)
		if st.timed > 0 {
			m.spans[d].AddTime(time.Duration(float64(st.ns) * float64(st.calls) / float64(st.timed)))
		}
		*st = stepAcct{}
	}
	if m.e.met.reg == nil {
		return
	}
	m.e.met.rowsScanned.Add(w.scanned)
	m.e.met.edgesTraversed.Add(w.edges)
	m.e.met.indexHits.Add(w.idxHit)
	m.e.met.indexMisses.Add(w.idxMiss)
	if a := m.e.acct; a != nil {
		a.rowsScanned.Add(w.scanned)
		if a.live != nil {
			a.live.AddRows(w.scanned + w.edges - w.reported)
		}
	}
	w.scanned, w.edges, w.idxHit, w.idxMiss, w.reported = 0, 0, 0, 0, 0
}

func refSourcesOf(e expr.Expr) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range expr.Refs(e) {
		if !seen[r.Source] {
			seen[r.Source] = true
			out = append(out, r.Source)
		}
	}
	return out
}

// candidates returns (building on first use) the candidate bitmap for a
// node: vertices of its type satisfying the self condition and the seed
// restriction. A key seek looks up the one vertex its key can select;
// any other condition scans the type.
func (m *matcher) candidates(node int) (*bitmap.Bitmap, error) {
	if m.cands[node] != nil {
		return m.cands[node], nil
	}
	var bm *bitmap.Bitmap
	var err error
	if ks := m.seek[node]; ks != nil {
		bm, err = m.seekCandidates(node, ks)
	} else {
		bm, err = m.scanCandidates(node)
	}
	if err != nil {
		return nil, err
	}
	m.cands[node] = bm
	return bm, nil
}

// seekCandidates finds the vertex with the seek's key, then applies the
// seed and the full self condition to it.
func (m *matcher) seekCandidates(node int, ks *keySeek) (*bitmap.Bitmap, error) {
	vt := m.nodeType[node]
	bm := bitmap.New(vt.Count())
	v, found := vt.LookupKeyValues([]value.Value{ks.val})
	if !found {
		return bm, nil
	}
	w := &wstate{m: m, b: make([]uint32, len(m.pat.Nodes)+len(m.pat.Edges)), scanned: 1}
	ok, err := m.nodeOK(w, node, v)
	m.flush(w)
	if err != nil {
		return nil, err
	}
	if ok {
		bm.Set(v)
	}
	return bm, nil
}

// scanCandidates evaluates the seed and self condition on every vertex
// of the node's type, data-parallel over the id space.
func (m *matcher) scanCandidates(node int) (*bitmap.Bitmap, error) {
	vt := m.nodeType[node]
	n := vt.Count()
	bm := bitmap.New(n)
	cond := m.nodeSelf[node]
	seed := m.seeds[node]
	shards := shardRanges(n, m.workers*4)
	err := m.e.runSweep(fmt.Sprintf("candidate scan %s", vt.Name), len(shards), m.workers, func(si int) error {
		lo, hi := shards[si][0], shards[si][1]
		w := &wstate{m: m, b: make([]uint32, len(m.pat.Nodes)+len(m.pat.Edges))}
		w.scanned = int64(hi - lo)
		for v := lo; v < hi; v++ {
			if err := w.poll(); err != nil {
				return err
			}
			if seed != nil && !seed.Get(v) {
				continue
			}
			if cond != nil {
				w.b[node] = v
				ok, err := evalBool(cond, w)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			bm.SetAtomic(v)
		}
		m.flush(w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bm, nil
}

// nodeOK applies a node's self condition and seed to one vertex.
func (m *matcher) nodeOK(w *wstate, node int, v uint32) (bool, error) {
	if s := m.seeds[node]; s != nil && !s.Get(v) {
		return false, nil
	}
	cond := m.nodeSelf[node]
	if cond == nil {
		return true, nil
	}
	prev := w.b[node]
	w.b[node] = v
	ok, err := evalBool(cond, w)
	w.b[node] = prev
	return ok, err
}

func (m *matcher) edgeOK(w *wstate, edge int, eid uint32) (bool, error) {
	cond := m.edgeSelf[edge]
	if cond == nil {
		return true, nil
	}
	slot := len(m.pat.Nodes) + edge
	prev := w.b[slot]
	w.b[slot] = eid
	ok, err := evalBool(cond, w)
	w.b[slot] = prev
	return ok, err
}

// matchAll enumerates all bindings, invoking sink(shard, binding) for
// each. Bindings are streamed per shard; shards cover contiguous ranges of
// the first step's candidates, so collecting per shard and concatenating
// in shard order yields deterministic results. The binding slice is reused
// between calls — sinks must copy what they keep.
func (m *matcher) matchAll(nShards int, sink func(shard int, b []uint32) error) error {
	if len(m.order) == 0 {
		return nil
	}
	if m.e.tracing() && m.spans == nil {
		m.buildSpans()
	}
	first := m.order[0]
	cand, err := m.candidates(first.Node)
	if err != nil {
		return err
	}
	// Pre-build candidate sets for any scan visit so the parallel phase
	// never writes the (unsynchronised) cache. Connected patterns only
	// scan at position 0; this also covers the defensive restart branch.
	for _, v := range m.order[1:] {
		if v.Via < 0 {
			if _, err := m.candidates(v.Node); err != nil {
				return err
			}
		}
	}
	shards := shardRanges(cand.Len(), nShards)
	start := time.Now()
	err = m.e.runSweep("binding enumeration", len(shards), m.workers, func(si int) error {
		w := &wstate{m: m, b: make([]uint32, len(m.pat.Nodes)+len(m.pat.Edges))}
		for i := range w.b {
			w.b[i] = NoBind
		}
		if m.spans != nil {
			w.steps = make([]stepAcct, len(m.order))
		}
		emit := func(b []uint32) error { return sink(si, b) }
		var inner error
		cand.ForEachRange(shards[si][0], shards[si][1], func(v uint32) {
			if inner != nil {
				return
			}
			if err := w.poll(); err != nil {
				inner = err
				return
			}
			w.b[first.Node] = v
			if err := m.afterBind(w, 0, emit); err != nil {
				inner = err
			}
			w.b[first.Node] = NoBind
		})
		m.flush(w)
		return inner
	})
	if m.spans != nil {
		m.spans[0].AddTime(time.Since(start))
	}
	return err
}

// afterBind runs cycle verification and deferred conditions for the node
// just bound at order position depth, then continues the search.
func (m *matcher) afterBind(w *wstate, depth int, emit func([]uint32) error) error {
	return m.verifyFrom(w, depth, 0, emit)
}

func (m *matcher) verifyFrom(w *wstate, depth, vi int, emit func([]uint32) error) error {
	list := m.verifyAt[depth]
	if vi == len(list) {
		for _, dc := range m.deferred {
			if dc.depth != depth {
				continue
			}
			ok, err := evalBool(dc.cond, w)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		if w.steps != nil {
			w.steps[depth].rows++
		}
		if depth+1 == len(m.order) {
			return emit(w.b)
		}
		return m.expand(w, depth+1, emit)
	}

	pe := list[vi]
	if pe.Regex != nil {
		ok, err := m.regexConnected(w, pe, w.b[pe.Src], w.b[pe.Dst])
		if err != nil || !ok {
			return err
		}
		return m.verifyFrom(w, depth, vi+1, emit)
	}
	et := m.edgeType[pe.ID]
	slot := len(m.pat.Nodes) + pe.ID
	src, dst := w.b[pe.Src], w.b[pe.Dst]
	// Enumerate every parallel edge instance connecting the bound
	// endpoints (the graph is a multigraph, §II-A1).
	nbr, eids := et.Forward().Neighbors(src)
	w.edges += int64(len(nbr))
	for i, d := range nbr {
		if d != dst {
			continue
		}
		ok, err := m.edgeOK(w, pe.ID, eids[i])
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		w.b[slot] = eids[i]
		if err := m.verifyFrom(w, depth, vi+1, emit); err != nil {
			return err
		}
		w.b[slot] = NoBind
	}
	return nil
}

// expand binds the node at order position depth by traversing its Via
// edge from the already-bound endpoint. On a traced run one call in
// stepSampleMask+1 per depth and worker is timed into the depth's
// accounting (inclusive of deeper expansions); flush scales the sample.
func (m *matcher) expand(w *wstate, depth int, emit func([]uint32) error) error {
	if w.steps == nil {
		return m.expandStepAt(w, depth, emit)
	}
	st := &w.steps[depth]
	st.calls++
	if (st.calls-1)&stepSampleMask != 0 {
		return m.expandStepAt(w, depth, emit)
	}
	t0 := time.Now()
	err := m.expandStepAt(w, depth, emit)
	st.ns += int64(time.Since(t0))
	st.timed++
	return err
}

func (m *matcher) expandStepAt(w *wstate, depth int, emit func([]uint32) error) error {
	// One amortised context poll per binding attempt: deep enumeration
	// (the combinatorial worst case) passes through here constantly, so a
	// canceled query unwinds promptly even when no sweep boundary is near.
	if err := w.poll(); err != nil {
		return err
	}
	v := m.order[depth]
	if v.Via < 0 {
		// New component (defensive; sema guarantees connectivity).
		cand, err := m.candidates(v.Node)
		if err != nil {
			return err
		}
		var inner error
		cand.ForEach(func(x uint32) {
			if inner != nil {
				return
			}
			w.b[v.Node] = x
			if err := m.afterBind(w, depth, emit); err != nil {
				inner = err
			}
			w.b[v.Node] = NoBind
		})
		return inner
	}

	pe := m.pat.Edges[v.Via]
	if pe.Regex != nil {
		return m.expandRegex(w, depth, v, pe, emit)
	}
	et := m.edgeType[v.Via]
	slot := len(m.pat.Nodes) + pe.ID

	emitPair := func(target, eid uint32) error {
		ok, err := m.nodeOK(w, v.Node, target)
		if err != nil || !ok {
			return err
		}
		ok, err = m.edgeOK(w, pe.ID, eid)
		if err != nil || !ok {
			return err
		}
		w.b[v.Node] = target
		w.b[slot] = eid
		err = m.afterBind(w, depth, emit)
		w.b[v.Node] = NoBind
		w.b[slot] = NoBind
		return err
	}

	if v.Forward {
		nbr, eids := et.Forward().Neighbors(w.b[pe.Src])
		w.edges += int64(len(nbr))
		for i := range nbr {
			if err := emitPair(nbr[i], eids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if rev, ok := et.Reverse(); ok {
		nbr, eids := rev.Neighbors(w.b[pe.Dst])
		w.idxHit++
		w.edges += int64(len(nbr))
		for i := range nbr {
			if err := emitPair(nbr[i], eids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// No reverse index (§III-B builds it only "when memory space ... is
	// available"): degrade to a full edge-list scan.
	dst := w.b[pe.Dst]
	w.idxMiss++
	w.edges += int64(et.Count())
	for eid := uint32(0); eid < uint32(et.Count()); eid++ {
		s, d := et.EdgeAt(eid)
		if d != dst {
			continue
		}
		if err := emitPair(s, eid); err != nil {
			return err
		}
	}
	return nil
}

// catalogEstimator adapts catalog statistics (vertex counts, average
// degrees) plus simple condition selectivities to the planner interface.
type catalogEstimator struct {
	m        *matcher
	nodeCond []expr.Expr
}

func (ce *catalogEstimator) NodeCount(node int) float64 {
	m := ce.m
	base := float64(m.nodeType[node].Count())
	sel := condSelectivity(ce.nodeCond[node], node, m.nodeType[node])
	if s := m.seeds[node]; s != nil {
		if c := float64(s.Count()); c < base*sel {
			return c
		}
	}
	return base * sel
}

func (ce *catalogEstimator) EdgeFanout(edge int, forward bool) float64 {
	pe := ce.m.pat.Edges[edge]
	if pe.Regex != nil {
		// Closure fan-out is unbounded; discourage starting from a
		// regex but keep it usable.
		return 32
	}
	et := ce.m.edgeType[edge]
	if forward {
		return et.AvgOutDegree()
	}
	return et.AvgInDegree()
}

func (ce *catalogEstimator) CanTraverse(edge int, forward bool) bool {
	pe := ce.m.pat.Edges[edge]
	if pe.Regex != nil {
		return true // product BFS runs either way
	}
	if forward {
		return true
	}
	return ce.m.edgeType[edge].HasReverse()
}

// condSelectivity estimates the fraction of a vertex type surviving a step
// condition: an equality on a key attribute selects ~1 vertex, other
// equalities ~10%, ranges ~30%.
func condSelectivity(cond expr.Expr, node int, vt *graph.VertexType) float64 {
	if cond == nil {
		return 1
	}
	sel := 1.0
	for _, c := range expr.Conjuncts(cond) {
		b, ok := c.(*expr.Binary)
		if !ok || !b.Op.Comparison() {
			continue
		}
		ref := refOperandOf(b, node)
		if ref == nil {
			continue
		}
		switch {
		case b.Op == expr.OpEq && isKeyAttr(vt, ref.Col):
			if n := float64(vt.Count()); n > 0 {
				sel *= 1 / n
			}
		case b.Op == expr.OpEq:
			// Use the column's dictionary NDV when available (§III-B
			// "statistical properties"); fall back to a 10% guess.
			if ndv := attrDistinct(vt, ref.Col); ndv > 0 {
				sel *= 1 / float64(ndv)
			} else {
				sel *= 0.1
			}
		case b.Op == expr.OpNe:
			sel *= 0.9
		default:
			sel *= 0.3
		}
	}
	return sel
}

func refOperandOf(b *expr.Binary, node int) *expr.Ref {
	if r, ok := b.L.(*expr.Ref); ok && r.Source == node {
		if _, isConst := b.R.(*expr.Const); isConst {
			return r
		}
	}
	if r, ok := b.R.(*expr.Ref); ok && r.Source == node {
		if _, isConst := b.L.(*expr.Const); isConst {
			return r
		}
	}
	return nil
}

// attrDistinct returns the NDV of a vertex attribute column when cheaply
// known (dictionary-encoded columns), else -1.
func attrDistinct(vt *graph.VertexType, col int) int {
	if vt.OneToOne {
		return vt.Base.Col(col).Distinct()
	}
	return vt.Keys.Col(col).Distinct()
}

func isKeyAttr(vt *graph.VertexType, col int) bool {
	if vt.OneToOne {
		for _, k := range vt.KeyCols {
			if k == col {
				return true
			}
		}
		return false
	}
	// Many-to-one attributes are exactly the key columns.
	return true
}
