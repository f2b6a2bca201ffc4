package exec

import (
	"fmt"
	"slices"
	"time"

	"graql/internal/ast"
	"graql/internal/bitmap"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

func (e *Engine) runSelect(s *sema.Select, params map[string]value.Value) (Result, error) {
	if e.Opts.CheckOnly {
		return e.checkOnlySelect(s)
	}
	if s.Explain {
		if s.Analyze {
			return e.runExplainAnalyze(s, params)
		}
		return e.runExplain(s, params)
	}
	if s.Table != nil {
		return e.runTableSelect(s, params)
	}
	return e.runGraphSelect(s, params)
}

// checkOnlySelect registers result placeholders so that later statements
// of a statically checked script resolve (§III-A checking needs only
// metadata).
func (e *Engine) checkOnlySelect(s *sema.Select) (Result, error) {
	switch s.Into.Kind {
	case ast.IntoTable:
		t, err := table.New(s.Into.Name, s.OutSchema)
		if err != nil {
			return Result{}, err
		}
		if err := e.Cat.RegisterTable(t, true); err != nil {
			return Result{}, err
		}
	case ast.IntoSubgraph:
		e.Cat.RegisterSubgraph(graph.NewSubgraph(s.Into.Name))
	}
	return Result{Message: "checked select"}, nil
}

func astAggToTable(f ast.AggFunc) table.AggFunc {
	switch f {
	case ast.AggCount:
		return table.AggCount
	case ast.AggSum:
		return table.AggSum
	case ast.AggAvg:
		return table.AggAvg
	case ast.AggMin:
		return table.AggMin
	case ast.AggMax:
		return table.AggMax
	}
	panic("graql: not an aggregate")
}

// bindCond binds a condition's parameters for execution: the request's
// %name% parameters and, for a text template statement, its slots. With
// folding on (the analyzer's default) the bound condition is folded as
// analysis folds literals, and one that folds to true is dropped as
// analysis drops it. A statement then runs the same condition whether its
// constants were written as literals or bound as parameters, so text
// templates (template.go) and prepared statements plan and seek exactly
// like their literal spellings: graph plans are ordered by the shape of
// their conditions.
func (e *Engine) bindCond(c expr.Expr, params map[string]value.Value) (expr.Expr, error) {
	if c == nil {
		return nil, nil
	}
	b, err := expr.Bind(c, e.paramLookup(params), !e.Opts.NoFold)
	if err != nil {
		return nil, err
	}
	if k, ok := b.(*expr.Const); ok && k.V.Kind() == value.KindBool && !k.V.IsNull() && k.V.Bool() {
		return nil, nil
	}
	return b, nil
}

func (e *Engine) runTableSelect(s *sema.Select, params map[string]value.Value) (Result, error) {
	t := s.Table
	var where expr.Expr
	if s.Where != nil {
		bound, err := e.bindCond(s.Where, params)
		if err != nil {
			return Result{}, err
		}
		where = bound
	}

	// Access: a seek reads only the rows the where clause's leading key
	// equality can select (seek.go); anything else scans every row.
	tp := e.tablePar()
	t0 := time.Now()
	examined := t.NumRows()
	ks, seek := tableSeek(where, t)
	var cand []uint32
	if seek {
		cand = t.SeekEq(ks.col, ks.val)
		examined = len(cand)
	}
	e.noteScanned(int64(examined))
	if e.tracing() {
		if seek {
			e.opSpan("seek", fmt.Sprintf("table %s on %s", t.Name, ks.cond)).Record(int64(examined), 0)
		} else {
			e.opSpan("scan", fmt.Sprintf("table %s", t.Name)).Record(int64(examined), 0)
		}
	}

	// Selection.
	rows := t
	if where != nil {
		pred := func(r uint32) (bool, error) {
			return evalBool(where, singleTableEnv{t: t, row: r})
		}
		var idx []uint32
		var err error
		if seek {
			idx, err = table.FilterRowsPar(cand, pred, tp)
		} else {
			idx, err = table.FilterIdxPar(t, pred, tp)
		}
		if err != nil {
			return Result{}, err
		}
		rows = t.Gather(t.Name, idx)
		if e.tracing() {
			elapsed := time.Since(t0) // before rendering the label
			e.opSpan("filter", parDetail(s.WhereString(), tp, examined)).
				Record(int64(rows.NumRows()), elapsed)
		}
	}
	opStart := time.Now()

	var out *table.Table
	outName := s.Into.Name
	if outName == "" {
		outName = "result"
	}
	if s.Grouped {
		var aggs []table.AggSpec
		for _, it := range s.Items {
			if it.Agg == ast.AggNone {
				continue
			}
			aggs = append(aggs, table.AggSpec{Func: astAggToTable(it.Agg), Col: it.Col, Name: it.Name})
		}
		grouped, err := table.GroupByPar(rows, outName, s.GroupBy, aggs, tp)
		if err != nil {
			return Result{}, err
		}
		// Reproject to the item order of the select list.
		var colIdx []int
		var names []string
		aggPos := len(s.GroupBy)
		for _, it := range s.Items {
			if it.Agg == ast.AggNone {
				pos := -1
				for ki, kc := range s.GroupBy {
					if kc == it.Col {
						pos = ki
						break
					}
				}
				colIdx = append(colIdx, pos)
			} else {
				colIdx = append(colIdx, aggPos)
				aggPos++
			}
			names = append(names, it.Name)
		}
		out = grouped.ProjectCols(outName, colIdx, names)
		e.opSpan("group", parDetail(fmt.Sprintf("group by %d key column(s), %d aggregate(s)", len(s.GroupBy), countAggs(s)), tp, rows.NumRows())).
			Record(int64(out.NumRows()), time.Since(opStart))
	} else {
		fresh, err := table.New(outName, s.OutSchema)
		if err != nil {
			return Result{}, err
		}
		row := make([]value.Value, len(s.Items))
		boundExprs := make([]expr.Expr, len(s.Items))
		for i, it := range s.Items {
			if it.Expr != nil {
				be, err := expr.BindParams(it.Expr, params)
				if err != nil {
					return Result{}, err
				}
				boundExprs[i] = be
			}
		}
		for r := uint32(0); r < uint32(rows.NumRows()); r++ {
			for i, it := range s.Items {
				if it.Col >= 0 {
					row[i] = rows.Value(r, it.Col)
					continue
				}
				v, err := boundExprs[i].Eval(singleTableEnv{t: rows, row: r})
				if err != nil {
					return Result{}, err
				}
				row[i] = v
			}
			if err := fresh.AppendRow(row); err != nil {
				return Result{}, err
			}
		}
		out = fresh
		e.opSpan("project", fmt.Sprintf("%d output column(s)", len(s.Items))).
			Record(int64(out.NumRows()), time.Since(opStart))
	}

	out, err := e.finishTable(out, s)
	if err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultTable, Table: out}, nil
}

// finishTable applies distinct / order by / top n and registers the table
// when the statement has an into clause.
func (e *Engine) finishTable(out *table.Table, s *sema.Select) (*table.Table, error) {
	if s.Distinct {
		t0 := time.Now()
		out = table.Distinct(out, nil)
		e.opSpan("distinct", "eliminate duplicate rows").Record(int64(out.NumRows()), time.Since(t0))
	}
	if len(s.OrderBy) > 0 {
		keys := make([]table.SortKey, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = table.SortKey{Col: k.Col, Desc: k.Desc}
		}
		tp := e.tablePar()
		t0 := time.Now()
		sorted, err := table.OrderByPar(out, keys, tp)
		if err != nil {
			return nil, err
		}
		e.opSpan("sort", parDetail(fmt.Sprintf("order by %d key(s)", len(keys)), tp, out.NumRows())).
			Record(int64(sorted.NumRows()), time.Since(t0))
		out = sorted
	}
	if s.Top > 0 {
		t0 := time.Now()
		out = table.TopN(out, s.Top)
		e.opSpan("top", fmt.Sprintf("keep first %d rows", s.Top)).Record(int64(out.NumRows()), time.Since(t0))
	}
	return out, nil
}

// preparedAlt is one or-alternative with parameter-bound conditions.
type preparedAlt struct {
	alt      *sema.GraphAlt
	nodeCond []expr.Expr
	edgeCond []expr.Expr
}

func (e *Engine) prepareAlt(alt *sema.GraphAlt, params map[string]value.Value) (*preparedAlt, error) {
	p := &preparedAlt{alt: alt}
	pat := alt.Pattern
	p.nodeCond = make([]expr.Expr, len(pat.Nodes))
	p.edgeCond = make([]expr.Expr, len(pat.Edges))
	for i, n := range pat.Nodes {
		c, err := e.bindCond(n.Cond, params)
		if err != nil {
			return nil, err
		}
		p.nodeCond[i] = c
	}
	for i, pe := range pat.Edges {
		c, err := e.bindCond(pe.Cond, params)
		if err != nil {
			return nil, err
		}
		p.edgeCond[i] = c
	}
	return p, nil
}

// seedsFor resolves per-node seed subgraph restrictions under one typing.
func (e *Engine) seedsFor(pat *sema.Pattern, nt []*graph.VertexType) ([]*bitmap.Bitmap, error) {
	seeds := make([]*bitmap.Bitmap, len(pat.Nodes))
	for i, n := range pat.Nodes {
		if n.Seed == "" {
			continue
		}
		sub := e.Cat.Subgraph(n.Seed)
		if sub == nil {
			return nil, fmt.Errorf("graql: unknown subgraph %s", n.Seed)
		}
		if b, ok := sub.Vertices[nt[i]]; ok {
			seeds[i] = b
		} else {
			seeds[i] = bitmap.New(nt[i].Count()) // empty: type absent from seed
		}
	}
	return seeds, nil
}

func (e *Engine) runGraphSelect(s *sema.Select, params map[string]value.Value) (Result, error) {
	if s.Into.Kind == ast.IntoSubgraph {
		sub := graph.NewSubgraph(s.Into.Name)
		for _, alt := range s.GraphAlts {
			prep, err := e.prepareAlt(alt, params)
			if err != nil {
				return Result{}, err
			}
			if err := e.runAltSubgraph(prep, sub); err != nil {
				return Result{}, err
			}
		}
		return Result{Kind: ResultSubgraph, Subgraph: sub,
			Message: fmt.Sprintf("subgraph %s: %d vertices, %d edges", sub.Name, sub.NumVertices(), sub.NumEdges())}, nil
	}

	outName := s.Into.Name
	if outName == "" {
		outName = "result"
	}
	out, err := table.New(outName, s.OutSchema)
	if err != nil {
		return Result{}, err
	}
	for _, alt := range s.GraphAlts {
		prep, err := e.prepareAlt(alt, params)
		if err != nil {
			return Result{}, err
		}
		if err := e.runAltTable(prep, out); err != nil {
			return Result{}, err
		}
	}
	out, err = e.finishTable(out, s)
	if err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultTable, Table: out}, nil
}

// runAltTable enumerates bindings of one alternative and appends projected
// rows to out (Fig. 13: the matching subgraph as a table, one row per
// binding — multiplicities preserved, which is what makes the paper's Q2
// feature-count work).
//
// The projection is columnar: during the sweep each shard only records
// the bound ids of the projected steps, and afterwards each output column
// is one Gather of its attribute column over those ids, in shard order.
func (e *Engine) runAltTable(prep *preparedAlt, out *table.Table) error {
	pat := prep.alt.Pattern
	proj := prep.alt.Proj
	// srcs lists the projected steps once each; slot[i] is proj[i]'s.
	var srcs []int
	slot := make([]int, len(proj))
	for i, item := range proj {
		slot[i] = slices.Index(srcs, item.Source)
		if slot[i] < 0 {
			slot[i] = len(srcs)
			srcs = append(srcs, item.Source)
		}
	}
	return e.forEachTyping(pat, func(nt []*graph.VertexType, et []*graph.EdgeType) error {
		m, err := e.newMatcher(pat, cloneTypes(nt), cloneEdgeTypes(et), prep.nodeCond, prep.edgeCond, mustSeeds(e, pat, nt))
		if err != nil {
			return err
		}
		nShards := m.workers * 4
		// ids[shard] holds len(srcs) bound ids per binding.
		ids := make([][]uint32, nShards)
		err = m.matchAll(nShards, func(shard int, b []uint32) error {
			for _, src := range srcs {
				ids[shard] = append(ids[shard], b[src])
			}
			return nil
		})
		if err != nil {
			return err
		}
		n := 0
		for _, sh := range ids {
			n += len(sh) / len(srcs)
		}
		if n == 0 {
			return nil
		}
		// Per projected step: its attribute table and, in binding
		// order, the rows of that table the bindings bound.
		attrs := make([]*table.Table, len(srcs))
		rows := make([][]uint32, len(srcs))
		for k, src := range srcs {
			r := make([]uint32, 0, n)
			for _, sh := range ids {
				for i := k; i < len(sh); i += len(srcs) {
					r = append(r, sh[i])
				}
			}
			if src < len(pat.Nodes) {
				vt := m.nodeType[src]
				attrs[k] = vt.AttrTable()
				for j, v := range r {
					r[j] = vt.AttrRow(v)
				}
			} else {
				attrs[k] = m.edgeType[src-len(pat.Nodes)].Attrs // edge id == attribute row
			}
			rows[k] = r
		}
		cols := make([]table.Column, len(proj))
		for i, item := range proj {
			if err := e.canceled(); err != nil {
				return err
			}
			cols[i] = attrs[slot[i]].Col(item.Col).Gather(rows[slot[i]])
		}
		return out.AppendColumns(cols)
	})
}

// mustSeeds wraps seedsFor for use inside typing enumeration; seed
// resolution errors surface via panic-free double checking at runAlt
// entry, so this only maps types.
func mustSeeds(e *Engine, pat *sema.Pattern, nt []*graph.VertexType) []*bitmap.Bitmap {
	seeds, err := e.seedsFor(pat, nt)
	if err != nil {
		// sema verified seed subgraphs exist; absence here means a
		// concurrent drop, which the catalog lock prevents.
		panic(err)
	}
	return seeds
}

func cloneTypes(nt []*graph.VertexType) []*graph.VertexType {
	return append([]*graph.VertexType(nil), nt...)
}

func cloneEdgeTypes(et []*graph.EdgeType) []*graph.EdgeType {
	return append([]*graph.EdgeType(nil), et...)
}
