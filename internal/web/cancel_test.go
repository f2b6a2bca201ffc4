package web_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graql/internal/exec"
	"graql/internal/server"
	"graql/internal/web"
)

// denseWebServer serves the dense synthetic graph (slow unanchored
// 3-hop enumerations) over HTTP with the given limits and gate.
func denseWebServer(t *testing.T, limits server.Limits, gate *server.Gate) *httptest.Server {
	t.Helper()
	srv := server.New(denseEngine(t), "")
	srv.Limits = limits
	srv.Gate = gate
	ts := httptest.NewServer(web.New(srv))
	t.Cleanup(ts.Close)
	return ts
}

// denseEngine loads the dense synthetic graph whose unanchored 3-hop
// enumeration takes a few hundred ms.
func denseEngine(t *testing.T) *exec.Engine {
	t.Helper()
	eng := exec.New(exec.DefaultOptions())
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
	return eng
}

const webSlowQuery = `select a.id as src, d.id as dst from graph def a: N ( ) --link--> N ( ) --link--> N ( ) --link--> def d: N ( ) into table SlowT`

func postRaw(t *testing.T, ts *httptest.Server, body string) (int, http.Header, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// TestWebDeadline checks a per-request timeoutMs aborts an expensive
// query with the structured "deadline" code over HTTP.
func TestWebDeadline(t *testing.T) {
	ts := denseWebServer(t, server.Limits{}, nil)

	start := time.Now()
	status, _, out := postRaw(t, ts,
		`{"script": `+jsonQuote(webSlowQuery)+`, "timeoutMs": 50}`)
	elapsed := time.Since(start)

	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (structured error in body)", status)
	}
	if out["ok"] == true {
		t.Fatal("want deadline error, got success")
	}
	if out["code"] != server.CodeDeadline {
		t.Fatalf("code = %v, want %q (body: %v)", out["code"], server.CodeDeadline, out)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("deadline round trip took %v, want < 500ms", elapsed)
	}
}

// TestWebDefaultDeadline checks the handler's default limit applies
// when the request does not carry its own timeoutMs.
func TestWebDefaultDeadline(t *testing.T) {
	ts := denseWebServer(t, server.Limits{DefaultTimeout: 50 * time.Millisecond}, nil)

	_, _, out := postRaw(t, ts, `{"script": `+jsonQuote(webSlowQuery)+`}`)
	if out["code"] != server.CodeDeadline {
		t.Fatalf("code = %v, want %q (body: %v)", out["code"], server.CodeDeadline, out)
	}
}

// TestWebOverloaded saturates a 1-slot gate and checks the concurrent
// HTTP query gets a 503 with the "overloaded" code and a Retry-After
// hint, while the slow occupant still completes.
func TestWebOverloaded(t *testing.T) {
	gate := server.NewGate(1, 0, nil)
	ts := denseWebServer(t, server.Limits{}, gate)

	slowDone := make(chan map[string]any, 1)
	go func() {
		_, _, out := postRaw(t, ts, `{"script": `+jsonQuote(webSlowQuery)+`}`)
		slowDone <- out
	}()
	deadline := time.Now().Add(2 * time.Second)
	for gate.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never acquired the gate")
		}
		time.Sleep(time.Millisecond)
	}

	status, hdr, out := postRaw(t, ts, `{"script": `+jsonQuote(webSlowQuery)+`}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if out["code"] != server.CodeOverloaded {
		t.Fatalf("code = %v, want %q", out["code"], server.CodeOverloaded)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("want a Retry-After header on overloaded responses")
	}

	if out := <-slowDone; out["ok"] != true {
		t.Fatalf("slow occupant failed: %v", out)
	}
}

// jsonQuote JSON-quotes a script for embedding in a request body.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestWebShutdownCancels checks Server.Shutdown's drain-then-cancel
// covers HTTP requests: a query still running when the drain window
// ends is canceled and its caller gets the structured "canceled" code.
func TestWebShutdownCancels(t *testing.T) {
	srv := server.New(denseEngine(t), "")
	gate := server.NewGate(0, 0, nil) // no limit; counts admitted queries
	srv.Gate = gate
	ts := httptest.NewServer(web.New(srv))
	t.Cleanup(ts.Close)

	type result struct {
		out map[string]any
		err error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"script": `+jsonQuote(webSlowQuery)+`}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		done <- result{out, err}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for gate.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never reached execution")
		}
		time.Sleep(time.Millisecond)
	}

	if srv.Shutdown(20 * time.Millisecond) {
		t.Error("Shutdown() = true, want the slow query still running after the drain window")
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.out["code"] != server.CodeCanceled {
		t.Fatalf("code = %v, want %q (body: %v)", r.out["code"], server.CodeCanceled, r.out)
	}
}
