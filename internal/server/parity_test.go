package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"graql/internal/exec"
	"graql/internal/server"
	"graql/internal/web"
)

// TestWireParity sends the same requests over TCP and HTTP to one
// server.Server and requires the same outcome on both wires: OK, Code,
// Error, Results and Diagnostics. The request log labels each line with
// its wire's op: the TCP op name, the HTTP route.
func TestWireParity(t *testing.T) {
	eng := exec.New(exec.DefaultOptions())
	if _, err := eng.ExecScript(setupScript, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Cities", strings.NewReader("p,US\nq,US\nr,CA\n")); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Roads", strings.NewReader("p,q\nq,r\n")); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, "")
	gate := server.NewGate(1, 1, nil)
	srv.Gate = gate
	var log lockedBuffer
	srv.Log = slog.New(slog.NewJSONHandler(&log, nil))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		ln.Close()
		<-served
	})
	ts := httptest.NewServer(web.New(srv))
	t.Cleanup(ts.Close)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)

	wires := map[string]func(server.Request) server.Response{
		"tcp": func(req server.Request) server.Response {
			t.Helper()
			var resp server.Response
			if err := enc.Encode(req); err != nil {
				t.Fatal(err)
			}
			if err := dec.Decode(&resp); err != nil {
				t.Fatal(err)
			}
			return resp
		},
		"http": func(req server.Request) server.Response {
			t.Helper()
			path := map[string]string{"exec": "/query", "check": "/query",
				"prepare": "/prepare", "execute": "/execute"}[req.Op]
			body, err := json.Marshal(struct {
				server.Request
				Check bool `json:"check,omitempty"`
			}{req, req.Op == "check"})
			if err != nil {
				t.Fatal(err)
			}
			hr, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer hr.Body.Close()
			var resp server.Response
			if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
				t.Fatal(err)
			}
			return resp
		},
	}

	const probe = `select B.id from graph City (id = %Start%) --road--> def B: City ( )`
	start := map[string]server.Param{"Start": {Type: "varchar", Value: "p"}}
	cases := []struct {
		name string
		req  server.Request
		// prepareVia, when set, first prepares req.Script over that wire
		// and then sends an execute of the handle over both.
		prepareVia string
		// hold is how many gate places the test occupies during the
		// request: 1 takes the only execution slot, 2 also fills the queue.
		hold int
		code string
		// results is how many statement results both wires return.
		results int
	}{
		{name: "text exec", results: 1, req: server.Request{Op: "exec", Script: probe, Params: start}},
		{name: "script fails mid-way", code: server.CodeExec, results: 1,
			req: server.Request{Op: "exec", Script: "select id from table Cities\nselect x from table Missing"}},
		{name: "parse error", code: server.CodeParse,
			req: server.Request{Op: "exec", Script: "select from from"}},
		{name: "prepare tcp execute both", prepareVia: "tcp", results: 1, req: server.Request{Script: probe, Params: start}},
		{name: "prepare http execute both", prepareVia: "http", results: 1, req: server.Request{Script: probe, Params: start}},
		{name: "unknown handle", code: server.CodeBadRequest,
			req: server.Request{Op: "execute", Stmt: "s999"}},
		{name: "bad param type", code: server.CodeBadRequest,
			req: server.Request{Op: "exec", Script: probe,
				Params: map[string]server.Param{"Start": {Type: "frob", Value: "p"}}}},
		{name: "check with diagnostics", code: server.CodeParse,
			req: server.Request{Op: "check", Script: "create table T(a date)\nselect a from table T where a > 1.5"}},
		{name: "deadline while queued", hold: 1, code: server.CodeDeadline,
			req: server.Request{Op: "exec", Script: probe, Params: start, TimeoutMs: 30}},
		{name: "overloaded", hold: 2, code: server.CodeOverloaded,
			req: server.Request{Op: "exec", Script: probe, Params: start}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			if tc.prepareVia != "" {
				prep := wires[tc.prepareVia](server.Request{Op: "prepare", Script: req.Script})
				if !prep.OK || prep.Stmt == "" {
					t.Fatalf("prepare over %s: %+v", tc.prepareVia, prep)
				}
				req = server.Request{Op: "execute", Stmt: prep.Stmt, Params: req.Params}
			}
			release := occupy(t, gate, tc.hold)
			got := map[string]server.Response{"tcp": wires["tcp"](req), "http": wires["http"](req)}
			release()

			tcp, web := got["tcp"], got["http"]
			if tcp.Code != tc.code || tcp.OK != (tc.code == "") {
				t.Fatalf("tcp: ok=%v code=%q, want code %q (%s)", tcp.OK, tcp.Code, tc.code, tcp.Error)
			}
			if tcp.OK != web.OK || tcp.Code != web.Code || tcp.Error != web.Error {
				t.Errorf("tcp ok=%v code=%q error=%q; http ok=%v code=%q error=%q",
					tcp.OK, tcp.Code, tcp.Error, web.OK, web.Code, web.Error)
			}
			if len(tcp.Results) != tc.results {
				t.Errorf("tcp: %d results, want %d: %+v", len(tcp.Results), tc.results, tcp.Results)
			}
			if !reflect.DeepEqual(tcp.Results, web.Results) {
				t.Errorf("results differ:\ntcp:  %+v\nhttp: %+v", tcp.Results, web.Results)
			}
			if !reflect.DeepEqual(tcp.Diagnostics, web.Diagnostics) {
				t.Errorf("diagnostics differ:\ntcp:  %+v\nhttp: %+v", tcp.Diagnostics, web.Diagnostics)
			}
			if tc.req.Op == "check" && len(web.Diagnostics) == 0 {
				t.Error("check returned no diagnostics")
			}
		})
	}

	lines := log.String()
	for _, op := range []string{"exec", "execute", "prepare", "/query", "/execute", "/prepare"} {
		if !strings.Contains(lines, `"op":"`+op+`"`) {
			t.Errorf("request log has no line with op %q:\n%s", op, lines)
		}
	}
}

// lockedBuffer is a log sink the server writes from its request
// goroutines while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// occupy takes n places of the gate (the execution slot first, then the
// queue) and returns the function that gives them back.
func occupy(t *testing.T, gate *server.Gate, n int) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	if n == 0 {
		return cancel
	}
	if err := gate.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	if n > 1 {
		go func() { queued <- gate.Acquire(ctx) }()
		for gate.Pending() < 2 {
			time.Sleep(time.Millisecond)
		}
	}
	return func() {
		cancel()
		if n > 1 {
			<-queued
		}
		gate.Release()
	}
}
