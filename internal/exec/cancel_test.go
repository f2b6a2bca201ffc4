package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"graql/internal/ast"
	"graql/internal/obs"
	"graql/internal/parser"
)

func mustParseStmt(t *testing.T, src string) ast.Stmt {
	t.Helper()
	script, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Stmts) != 1 {
		t.Fatalf("want 1 statement, got %d", len(script.Stmts))
	}
	return script.Stmts[0]
}

// denseEngine builds a dense synthetic graph — n vertices, fanout edges
// out of each — whose unanchored multi-hop traversals are deliberately
// expensive, so a short deadline lands mid-sweep rather than before or
// after the work.
func denseEngine(t testing.TB, n, fanout int, tune func(*Options)) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = 2
	if tune != nil {
		tune(&opts)
	}
	e := New(opts)
	if _, err := e.ExecScript(`
create table Nodes(id varchar(8))
create table Links(src varchar(8), dst varchar(8))
create vertex N(id) from table Nodes
create edge link with vertices (N as A, N as B)
from table Links
where Links.src = A.id and Links.dst = B.id
`, nil); err != nil {
		t.Fatal(err)
	}
	var nodes, links strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&nodes, "v%d\n", i)
		for j := 0; j < fanout; j++ {
			fmt.Fprintf(&links, "v%d,v%d\n", i, (i*7+j*13+1)%n)
		}
	}
	if err := e.IngestReader("Nodes", strings.NewReader(nodes.String())); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestReader("Links", strings.NewReader(links.String())); err != nil {
		t.Fatal(err)
	}
	return e
}

// slowQuery enumerates every 4-hop walk from the vertices with id <
// 'v13' and keeps those that return to their start, a column select
// that needs binding enumeration instead of the bitmap-cull fast path.
// The cross-step condition is checked per binding, so the time goes to
// the sweep, not to projecting the few result rows: on the 150×15
// fixture the unbounded run takes a few hundred ms, and a ~20ms
// deadline reliably expires while the sweep is in flight.
const slowQuery = `
select a.id as src, e.id as dst from graph
def a: N (id < 'v13') --link--> N ( ) --link--> N ( ) --link--> N ( ) --link--> def e: N (id = a.id)
into table SlowT`

// clusterQuery is a concrete linear chain into a subgraph, the shape
// the BSP cluster path accepts when Opts.ClusterParts >= 2.
const clusterQuery = `
select * from graph
N ( ) --link--> N ( ) --link--> N ( )
into subgraph CSG`

// TestDeadlineAbortsSlowQuery checks that a context deadline interrupts
// a row sweep mid-flight: the query aborts well before its unbounded
// runtime and surfaces both the engine sentinel and the context cause.
func TestDeadlineAbortsSlowQuery(t *testing.T) {
	e := denseEngine(t, 150, 15, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := e.ExecScriptContext(ctx, slowQuery, nil)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("want deadline error, got nil")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("errors.Is(err, ErrDeadlineExceeded) = false; err = %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false; err = %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Errorf("deadline error must not match ErrCanceled: %v", err)
	}
	// The cooperative polls fire every ~1k rows, so the abort should be
	// nearly immediate after the deadline — 500ms is the acceptance
	// bound and leaves plenty of slack under -race.
	if elapsed > 500*time.Millisecond {
		t.Errorf("aborted run took %v, want < 500ms", elapsed)
	}
}

// TestCancelMidQuery cancels the context from another goroutine while
// the sweep is running and checks the engine stops promptly with the
// cancellation sentinel.
func TestCancelMidQuery(t *testing.T) {
	e := denseEngine(t, 150, 15, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	_, err := e.ExecScriptContext(ctx, slowQuery, nil)
	elapsed := time.Since(start)

	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false; err = %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("canceled run took %v, want < 500ms", elapsed)
	}
}

// TestPreCanceledContext checks a context that is dead on arrival is
// rejected at the statement boundary with no partial results.
func TestPreCanceledContext(t *testing.T) {
	e := denseEngine(t, 20, 3, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := e.ExecScriptContext(ctx, slowQuery, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false; err = %v", err)
	}
	if len(res) != 0 {
		t.Errorf("want no results from a pre-canceled script, got %d", len(res))
	}
}

// TestDeadlineAbortsClusterChain runs the chain query through the BSP
// cluster path (ClusterParts=2) with an already-expired deadline and
// checks the abort maps onto the engine's deadline sentinel.
func TestDeadlineAbortsClusterChain(t *testing.T) {
	e := denseEngine(t, 150, 15, func(o *Options) { o.ClusterParts = 2 })
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()

	_, err := e.ExecScriptContext(ctx, clusterQuery, nil)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("errors.Is(err, ErrDeadlineExceeded) = false; err = %v", err)
	}

	// The same engine still answers once the pressure is off.
	res, err := e.ExecScriptContext(context.Background(), clusterQuery, nil)
	if err != nil {
		t.Fatalf("follow-up query after abort: %v", err)
	}
	if res[0].Subgraph == nil || res[0].Subgraph.NumVertices() == 0 {
		t.Fatalf("follow-up query returned an empty subgraph")
	}
}

// TestAbortMetricsAndTraceAttr checks an aborted statement increments
// the right counter and marks its trace span with the aborted attr, so
// cancellations are visible in /metrics and /debug/traces.
func TestAbortMetricsAndTraceAttr(t *testing.T) {
	reg := obs.New()
	e := denseEngine(t, 150, 15, func(o *Options) { o.Obs = reg })

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	tr := obs.NewTrace(obs.TraceID{})
	_, err := e.WithTrace(tr, nil).ExecScriptContext(ctx, slowQuery, nil)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("errors.Is(err, ErrDeadlineExceeded) = false; err = %v", err)
	}

	if got := e.met.timedOut.Value(); got != 1 {
		t.Errorf("graql_queries_timeout_total = %d, want 1", got)
	}
	if got := e.met.canceled.Value(); got != 0 {
		t.Errorf("graql_queries_canceled_total = %d, want 0", got)
	}

	tree := tr.Tree()
	if len(tree.Roots) != 1 {
		t.Fatalf("want 1 root span, got %d", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Action != "statement" {
		t.Errorf("root span action = %q, want statement", root.Action)
	}
	if got := root.Attrs["aborted"]; got != "deadline" {
		t.Errorf("root span aborted attr = %q, want deadline", got)
	}

	// A straight cancellation lands in the other counter and attr.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	tr2 := obs.NewTrace(obs.TraceID{})
	if _, err := e.WithTrace(tr2, nil).ExecStmtContext(cctx, mustParseStmt(t, slowQuery), nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false; err = %v", err)
	}
	if got := e.met.canceled.Value(); got != 1 {
		t.Errorf("graql_queries_canceled_total = %d, want 1", got)
	}
	tree2 := tr2.Tree()
	if len(tree2.Roots) != 1 || tree2.Roots[0].Attrs["aborted"] != "canceled" {
		t.Errorf("canceled statement span missing aborted=canceled attr: %+v", tree2.Roots)
	}
}
