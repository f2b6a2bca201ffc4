package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"graql/internal/client"
	"graql/internal/exec"
	"graql/internal/server"
)

// startServerWith is startServer with limits and an admission gate, and
// it also hands back the Server for shutdown tests.
func startServerWith(t *testing.T, limits server.Limits, gate *server.Gate) (addr string, eng *exec.Engine, srv *server.Server, done chan struct{}) {
	t.Helper()
	eng = exec.New(exec.DefaultOptions())
	srv = server.New(eng, "")
	srv.Limits = limits
	srv.Gate = gate
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		ln.Close()
		<-done
	})
	return ln.Addr().String(), eng, srv, done
}

// loadDense populates the engine with the dense synthetic graph whose
// closed-walk enumeration (denseSlowQuery) takes a few hundred ms — long
// enough for deadlines and admission pressure to land mid-query.
func loadDense(t *testing.T, eng *exec.Engine) {
	t.Helper()
	if _, err := eng.ExecScript(`
create table Nodes(id varchar(8))
create table Links(src varchar(8), dst varchar(8))
create vertex N(id) from table Nodes
create edge link with vertices (N as A, N as B)
from table Links
where Links.src = A.id and Links.dst = B.id
`, nil); err != nil {
		t.Fatal(err)
	}
	const n, fanout = 150, 15
	var nodes, links strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&nodes, "v%d\n", i)
		for j := 0; j < fanout; j++ {
			fmt.Fprintf(&links, "v%d,v%d\n", i, (i*7+j*13+1)%n)
		}
	}
	if err := eng.IngestReader("Nodes", strings.NewReader(nodes.String())); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Links", strings.NewReader(links.String())); err != nil {
		t.Fatal(err)
	}
}

// denseSlowQuery walks every 4-hop path from the 35 vertices with
// id < 'v13' (1.8M expansions) and keeps the walks that return to a. The
// cross-step condition is checked per binding, so the cost is in the
// matcher, not in projecting or encoding the ~12k result rows.
const denseSlowQuery = `
select a.id as src, e.id as dst from graph
def a: N (id < 'v13') --link--> N ( ) --link--> N ( ) --link--> N ( ) --link--> def e: N (id = a.id)
into table SlowT`

const denseQuickQuery = `select B.id from graph N (id = 'v0') --link--> def B: N ( )`

// TestDeadlineOverWire sends timeoutMs=50 on an expensive query and
// expects a structured "deadline" error well under 500ms, with the
// server staying healthy afterwards.
func TestDeadlineOverWire(t *testing.T) {
	addr, eng, _, _ := startServerWith(t, server.Limits{}, nil)
	loadDense(t, eng)

	cl, err := client.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	resp, err := cl.ExecTimeout(denseSlowQuery, nil, 50*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("want deadline error, got success")
	}
	if resp == nil || resp.Code != server.CodeDeadline {
		t.Fatalf("response code = %+v, want %q", resp, server.CodeDeadline)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("deadline round trip took %v, want < 500ms", elapsed)
	}

	// The session and server survive the abort.
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after abort: %v", err)
	}
	if resp, err := cl.Exec(denseQuickQuery, nil); err != nil {
		t.Fatalf("quick query after abort: %v", err)
	} else if len(resp.Results) != 1 {
		t.Fatalf("quick query results = %+v", resp.Results)
	}
}

// TestServerDefaultDeadline checks Limits.DefaultTimeout applies when a
// request carries no timeoutMs, and MaxTimeout clamps oversized asks.
func TestServerDefaultDeadline(t *testing.T) {
	limits := server.Limits{DefaultTimeout: 50 * time.Millisecond, MaxTimeout: 100 * time.Millisecond}
	addr, eng, _, _ := startServerWith(t, limits, nil)
	loadDense(t, eng)

	cl, err := client.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Exec(denseSlowQuery, nil)
	if err == nil {
		t.Fatal("want default-deadline error, got success")
	}
	if resp.Code != server.CodeDeadline {
		t.Fatalf("code = %q, want %q", resp.Code, server.CodeDeadline)
	}

	// An explicit oversized timeout is clamped to MaxTimeout, so the
	// slow query still aborts with the deadline code.
	start := time.Now()
	resp, err = cl.ExecTimeout(denseSlowQuery, nil, time.Hour)
	if err == nil {
		t.Fatal("want clamped-deadline error, got success")
	}
	if resp.Code != server.CodeDeadline {
		t.Fatalf("clamped code = %q, want %q", resp.Code, server.CodeDeadline)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("clamped query took %v, want well under 1s", elapsed)
	}
}

// TestAdmissionRejection saturates a 1-slot gate with a slow query and
// checks the concurrent query is rejected with the overloaded code, and
// that capacity frees up once the slow query finishes.
func TestAdmissionRejection(t *testing.T) {
	gate := server.NewGate(1, 0, nil)
	addr, eng, _, _ := startServerWith(t, server.Limits{}, gate)
	loadDense(t, eng)

	slow, err := client.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := client.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := slow.Exec(denseSlowQuery, nil)
		slowDone <- err
	}()

	// Wait until the slow query actually occupies the gate.
	deadline := time.Now().Add(2 * time.Second)
	for gate.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never acquired the gate")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := fast.Exec(denseQuickQuery, nil)
	if err == nil {
		t.Fatal("want overloaded rejection, got success")
	}
	if resp == nil || resp.Code != server.CodeOverloaded {
		t.Fatalf("response = %+v, want code %q", resp, server.CodeOverloaded)
	}

	if err := <-slowDone; err != nil {
		t.Fatalf("slow query failed: %v", err)
	}
	// Pressure gone: the same session is served now.
	if _, err := fast.Exec(denseQuickQuery, nil); err != nil {
		t.Fatalf("query after pressure released: %v", err)
	}
}

// TestGate exercises the admission gate directly: in-flight cap, queue
// overflow, context-bounded waits and release.
func TestGate(t *testing.T) {
	g := server.NewGate(1, 1, nil)
	ctx := context.Background()

	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if got := g.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}

	// Second caller fits the queue but times out waiting for a slot.
	qctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := g.Acquire(qctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire error = %v, want deadline", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Errorf("queued acquire blocked %v, want ~20ms", time.Since(start))
	}

	// With holder + a (concurrent) queued waiter the third caller is
	// rejected outright.
	waiterIn := make(chan error, 1)
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	go func() { waiterIn <- g.Acquire(wctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for g.Pending() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.Acquire(ctx); !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("overflow acquire error = %v, want ErrOverloaded", err)
	}

	// Releasing the holder admits the queued waiter.
	g.Release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	g.Release()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after releases = %d, want 0", got)
	}

	// A nil gate admits everything.
	var nilGate *server.Gate
	if err := nilGate.Acquire(ctx); err != nil {
		t.Fatalf("nil gate acquire: %v", err)
	}
	nilGate.Release()
}

// TestShutdownDrains checks Shutdown lets an in-flight query finish
// inside the drain window, then refuses new connections.
func TestShutdownDrains(t *testing.T) {
	addr, eng, srv, done := startServerWith(t, server.Limits{}, nil)
	loadDense(t, eng)

	cl, err := client.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	queryDone := make(chan error, 1)
	go func() {
		_, err := cl.Exec(denseSlowQuery, nil)
		queryDone <- err
	}()
	// Let the query reach the engine before shutting down.
	time.Sleep(30 * time.Millisecond)

	if drained := srv.Shutdown(5 * time.Second); !drained {
		t.Error("Shutdown() = false, want graceful drain")
	}
	if err := <-queryDone; err != nil {
		t.Errorf("in-flight query during drain: %v", err)
	}

	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("listener still accepting after Shutdown")
	}
}
