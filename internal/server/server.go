// Package server implements the GEMS front-end server (paper §III): it
// centralises access to the database, authenticates clients, holds the
// metadata catalog, statically checks incoming GraQL scripts, compiles
// them to the binary IR, and executes them on the backend engine.
//
// The wire protocol is newline-delimited JSON frames over TCP: one
// Request per frame, one Response per frame. Clients range "from a simple
// command-line interface to web-based front-ends" (§III); cmd/gems-client
// is the former.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"graql/internal/ast"
	"graql/internal/cluster"
	"graql/internal/diag"
	"graql/internal/exec"
	"graql/internal/ir"
	"graql/internal/obs"
	"graql/internal/parser"
	"graql/internal/value"
)

// Param is a typed query parameter on the wire.
type Param struct {
	Type  string `json:"type"` // integer | float | varchar | date | boolean
	Value string `json:"value"`
}

// Request is one client frame.
type Request struct {
	// Op selects the operation: "exec" (run script), "check" (static
	// analysis only), "compile" (script → IR), "execir" (run IR bytes),
	// "prepare" (compile Script — or IR — into a reusable server-side
	// statement handle; the assigned id comes back in Response.Stmt),
	// "execute" (run the prepared handle named by Stmt, binding Params),
	// "deallocate" (drop the prepared handle named by Stmt),
	// "stats" (catalog snapshot), "metrics" (Prometheus text exposition
	// of the engine's observability registry), "trace" (retained trace
	// trees), "statements" (per-statement-shape statistics), "ps"
	// (in-flight query table), "cancelq" (cancel the in-flight query with
	// id QueryID), "workers" (distributed worker health), "ping".
	Op string `json:"op"`
	// Auth must match the server token when one is configured.
	Auth   string           `json:"auth,omitempty"`
	Script string           `json:"script,omitempty"`
	IR     string           `json:"ir,omitempty"` // base64
	Params map[string]Param `json:"params,omitempty"`
	// Trace optionally propagates the client's trace context: either a
	// W3C traceparent value ("00-<32 hex>-<16 hex>-01") or a bare 32-hex
	// trace id. When the server retains traces, the request's spans join
	// that trace (under the client's span, if one was given); otherwise a
	// fresh trace id is assigned. Echoed back in Response.TraceID.
	Trace string `json:"traceId,omitempty"`
	// TimeoutMs optionally bounds this request's execution in
	// milliseconds. It overrides the server's default query timeout and
	// is clamped to the server's maximum; zero means "use the default".
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// QueryID targets an in-flight query (op "cancelq").
	QueryID uint64 `json:"queryId,omitempty"`
	// Stmt names a prepared statement handle (ops "execute" and
	// "deallocate"); ids are assigned by "prepare".
	Stmt string `json:"stmt,omitempty"`

	// Wire and Route name the front-end a request arrived through: its
	// root trace span is (Wire, Route) and its log line carries op Route.
	// They are not part of the wire format; empty means the TCP defaults
	// ("server" and Op).
	Wire  string `json:"-"`
	Route string `json:"-"`
}

// origin resolves the request's root span name and log op label.
func (r *Request) origin() (wire, route string) {
	wire, route = r.Wire, r.Route
	if wire == "" {
		wire = "server"
	}
	if route == "" {
		route = r.Op
	}
	return wire, route
}

// StmtResult is one statement's outcome on the wire.
type StmtResult struct {
	Message          string     `json:"message,omitempty"`
	Columns          []string   `json:"columns,omitempty"`
	Rows             [][]string `json:"rows,omitempty"`
	SubgraphName     string     `json:"subgraphName,omitempty"`
	SubgraphVertices int        `json:"subgraphVertices,omitempty"`
	SubgraphEdges    int        `json:"subgraphEdges,omitempty"`
}

// CatalogEntry is one catalog object in a stats response.
type CatalogEntry struct {
	Kind         string  `json:"kind"`
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	AvgOutDegree float64 `json:"avgOutDegree,omitempty"`
	AvgInDegree  float64 `json:"avgInDegree,omitempty"`
}

// Error codes classifying a failed request (Response.Code). The error
// string stays populated for older clients.
const (
	CodeAuth       = "auth"        // authentication failed
	CodeParse      = "parse"       // lexing, parsing or static analysis
	CodeBadRequest = "bad_request" // malformed parameters, IR or op
	CodeExec       = "exec"        // statement execution failed
	CodeCanceled   = "canceled"    // execution aborted by cancellation (e.g. shutdown)
	CodeDeadline   = "deadline"    // execution aborted by the query deadline
	CodeOverloaded = "overloaded"  // rejected by admission control; retry after backoff
	CodePartial    = "partial"     // distributed execution failed on one or more workers
)

// Response is one server frame.
type Response struct {
	OK bool `json:"ok"`
	// Error is the human-readable failure; Code classifies it (auth |
	// parse | bad_request | exec | canceled | deadline | overloaded)
	// for programmatic handling.
	Error   string         `json:"error,omitempty"`
	Code    string         `json:"code,omitempty"`
	Results []StmtResult   `json:"results,omitempty"`
	IR      string         `json:"ir,omitempty"` // base64, for "compile"
	Catalog []CatalogEntry `json:"catalog,omitempty"`
	// Metrics carries the Prometheus text exposition for op "metrics".
	Metrics string `json:"metrics,omitempty"`
	// ElapsedUs is the server-side handling time of this request in
	// microseconds (stamped on every response).
	ElapsedUs int64 `json:"elapsedUs"`
	// TraceID echoes the request's trace id when the request was traced.
	TraceID string `json:"traceId,omitempty"`
	// Stmt is the id assigned to a prepared statement handle (op
	// "prepare"); pass it back as Request.Stmt to execute or deallocate.
	Stmt string `json:"stmt,omitempty"`
	// Traces carries the retained trace trees for op "trace".
	Traces []obs.TraceTree `json:"traces,omitempty"`
	// Statements carries the per-statement-shape statistics for op
	// "statements".
	Statements []obs.StmtStat `json:"statements,omitempty"`
	// Queries carries the in-flight query table for op "ps".
	Queries []obs.QueryInfo `json:"queries,omitempty"`
	// Workers carries the per-worker health of the distributed cluster
	// for op "workers" (empty when the server runs without one).
	Workers []cluster.WorkerStatus `json:"workers,omitempty"`
	// Diagnostics carries every static-analysis finding for op "check":
	// errors and lint warnings, sorted by source position. Present (with
	// OK=false and a summary Error) when the script has errors, and with
	// OK=true when only warnings remain.
	Diagnostics diag.List `json:"diagnostics,omitempty"`
}

func fail(code, format string, args ...any) *Response {
	return &Response{Code: code, Error: fmt.Sprintf(format, args...)}
}

// Limits configures per-query deadlines and admission control. The zero
// value imposes no limits.
type Limits struct {
	// DefaultTimeout bounds each request's execution when the client
	// sends no timeoutMs. Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the effective deadline, clamping client-supplied
	// timeoutMs values (and the default). Zero means no cap.
	MaxTimeout time.Duration
}

// timeoutFor resolves the effective execution budget for one request:
// the client's timeoutMs when given, otherwise the default, clamped to
// the maximum. Zero means "no deadline".
func (l Limits) timeoutFor(timeoutMs int) time.Duration {
	d := l.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if l.MaxTimeout > 0 && (d == 0 || d > l.MaxTimeout) {
		d = l.MaxTimeout
	}
	return d
}

// Server is a GEMS front-end bound to one engine.
type Server struct {
	eng   *exec.Engine
	token string

	// IdleTimeout bounds how long a connection may sit idle between
	// requests; WriteTimeout bounds the write of one response frame.
	// Zero disables the respective deadline. Set before Serve.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration

	// Limits configures per-query deadlines. Set before Serve.
	Limits Limits

	// Gate, when non-nil, admission-controls the execution ops ("exec",
	// "execir", "execute") on every wire; overflow requests fail with
	// CodeOverloaded. Set before Serve.
	Gate *Gate

	// Log, when non-nil, receives one structured line per request
	// (trace_id, op, code, elapsed_us) plus connection lifecycle events
	// at debug level. Set before Serve.
	Log *slog.Logger

	// Dist, when non-nil, is the coordinator's transport to the
	// distributed worker processes; op "workers" probes it for per-worker
	// health. Set before Serve (the engine routes queries through it via
	// Options.Dist).
	Dist *cluster.TCPTransport

	// prepared is the registry of prepared statement handles; every wire
	// resolves the same handle ids through Do.
	prepared *PreparedSet

	// baseCtx ends when Shutdown's drain window (or Close) aborts the
	// requests still in flight.
	baseCtx   context.Context
	cancelAll context.CancelFunc
	active    atomic.Int64 // requests currently being handled

	mu        sync.Mutex
	closed    bool
	conns     map[net.Conn]bool
	listeners map[net.Listener]bool
}

// New returns a server over the engine. A non-empty token enables
// authentication: every request must carry it.
func New(eng *exec.Engine, token string) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		eng: eng, token: token,
		conns:     make(map[net.Conn]bool),
		listeners: make(map[net.Listener]bool),
		baseCtx:   ctx, cancelAll: cancel,
		prepared: NewPreparedSet(0),
	}
}

// Engine returns the engine the server executes on.
func (s *Server) Engine() *exec.Engine { return s.eng }

// Do runs one request through the front-end pipeline that every wire
// shares: authentication, tracing, admission with its queued live-query
// entry, the deadline, op routing and error classification. It stamps
// ElapsedUs and emits the request's log line. ctx carries the caller's
// lifetime (an HTTP client that disconnects cancels it); the request is
// also canceled when Shutdown's drain window runs out.
func (s *Server) Do(ctx context.Context, req *Request) *Response {
	start := time.Now()
	s.active.Add(1)
	defer s.active.Add(-1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	if d := s.Limits.timeoutFor(req.TimeoutMs); d > 0 {
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(ctx, d)
		defer cancelDeadline()
	}
	resp := s.handle(ctx, req)
	resp.ElapsedUs = time.Since(start).Microseconds()
	s.logRequest(req, resp)
	return resp
}

// Serve accepts connections on ln until Close (or a permanent accept
// error) and serves each connection on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.listeners[ln] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close terminates all active connections and cancels in-flight
// queries immediately. The listener passed to Serve must be closed by
// the caller (Serve then returns nil). For a graceful stop use Shutdown.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancelAll()
}

// Shutdown stops the server gracefully: it closes the listeners (no new
// connections), waits up to drain for in-flight requests to finish,
// cancels whatever is still running (those requests fail with
// CodeCanceled), and finally closes the remaining connections. It
// returns true when everything drained within the window.
func (s *Server) Shutdown(drain time.Duration) bool {
	s.mu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
	// Queries still running during the drain window show as "draining" in
	// the live query table.
	s.eng.Opts.Obs.MarkDraining()

	drained := s.awaitIdle(drain)
	s.cancelAll()
	if !drained {
		// Give canceled requests a moment to write their error frames
		// before the connections go away.
		s.awaitIdle(time.Second)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.Log != nil {
		s.Log.Info("server shutdown", "drained", drained)
	}
	return drained
}

// awaitIdle polls until no request is being handled or the window
// elapses.
func (s *Server) awaitIdle(window time.Duration) bool {
	deadline := time.Now().Add(window)
	for s.active.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

func (s *Server) serveConn(conn net.Conn) {
	if s.Log != nil {
		s.Log.Debug("connection accepted", "remote", conn.RemoteAddr().String())
	}
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if s.Log != nil {
			s.Log.Debug("connection closed", "remote", conn.RemoteAddr().String())
		}
	}()
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	for {
		if s.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // EOF, timeout or broken frame: drop the session
		}
		// The request counts as active until its response frame is on
		// the wire, so a graceful drain never closes the connection
		// between handling and writing.
		s.active.Add(1)
		resp := s.Do(context.Background(), &req)
		if s.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		err := enc.Encode(resp)
		s.active.Add(-1)
		if err != nil {
			return
		}
	}
}

// logRequest emits the per-request structured line: every line carries
// the shared schema fields (trace_id, op, code, elapsed_us) so log
// streams join against the trace trees in /debug/traces.
func (s *Server) logRequest(req *Request, resp *Response) {
	if s.Log == nil {
		return
	}
	_, route := req.origin()
	attrs := []any{
		"trace_id", resp.TraceID,
		"op", route,
		"code", resp.Code,
		"elapsed_us", resp.ElapsedUs,
	}
	if resp.OK {
		s.Log.Info("request", attrs...)
	} else {
		s.Log.Warn("request failed", append(attrs, "error", resp.Error)...)
	}
}

func (s *Server) handle(ctx context.Context, req *Request) *Response {
	if s.token != "" && req.Auth != s.token {
		return fail(CodeAuth, "authentication failed")
	}
	if s.eng.Opts.Obs.TracingEnabled() && traceableOp(req.Op) {
		return s.handleTraced(ctx, req)
	}
	return s.dispatch(ctx, req, s.eng)
}

// traceableOp reports whether an op produces a trace tree. ping and the
// observability reads (metrics, trace) are excluded so polling them does
// not churn the trace ring.
func traceableOp(op string) bool {
	switch op {
	case "exec", "execir", "execute", "check", "compile", "stats":
		return true
	}
	return false
}

// handleTraced wraps one request in a trace: the root span (named by
// the request's origin: "server" on TCP, "web" on HTTP) covers the
// whole handling, statement and operator spans of execution nest
// beneath it, and the completed trace enters the registry's ring. A
// client-supplied traceparent (Request.Trace) contributes the trace id
// and the remote parent span id, so the server's tree joins a trace the
// client originated.
func (s *Server) handleTraced(ctx context.Context, req *Request) *Response {
	tid, parent, _ := obs.ParseTraceParent(req.Trace)
	tr := obs.NewTrace(tid)
	wire, route := req.origin()
	root := tr.SpanUnder(parent, wire, route)
	resp := s.dispatch(ctx, req, s.eng.WithTrace(tr, root))
	root.End()
	resp.TraceID = tr.ID().String()
	s.eng.Opts.Obs.ObserveTrace(tr)
	return resp
}

// dispatch routes one request to its handler, executing on eng (the
// base engine, or a traced fork of it).
func (s *Server) dispatch(ctx context.Context, req *Request, eng *exec.Engine) *Response {
	switch req.Op {
	case "ping":
		return &Response{OK: true}
	case "exec", "execir", "execute":
		// Only the execution ops pass admission control: the metadata and
		// observability reads are cheap and must stay responsive when the
		// engine is saturated. While queued the request is visible in the
		// live query table (state "queued") and cancelable by id; the wait
		// rides the context into per-statement accounting.
		qctx, qcancel := context.WithCancel(ctx)
		defer qcancel()
		// The queued entry shows the request's fingerprint. With text
		// templates on, a text request's comes from the same byte pass
		// that keys its template probe.
		var fp uint64
		var text string
		var scan *obs.TextScan
		switch {
		case req.Op == "exec" && eng.TextTemplates():
			ts := obs.ScanText(req.Script)
			scan = &ts
			fp, text = ts.FP, ts.Text
		case req.Op == "exec":
			fp, text = s.eng.Opts.Obs.FingerprintCached(req.Script)
		case req.Op == "execir":
			fp, text = compiledIRFP, compiledIRText
		default:
			if p := s.prepared.Get(req.Stmt); p != nil {
				fp, text = s.eng.Opts.Obs.FingerprintCached(p.Text())
			} else {
				fp, text = unknownStmtFP, unknownStmtText
			}
		}
		lq := s.eng.Opts.Obs.StartQueuedQuery(fp, text, qcancel)
		waitStart := time.Now()
		err := s.Gate.Acquire(qctx)
		lq.Finish()
		if err != nil {
			return admissionFailure(err)
		}
		defer s.Gate.Release()
		ctx = exec.WithQueueWait(qctx, time.Since(waitStart))
		if req.Op == "execute" {
			return s.execPrepared(ctx, req, eng)
		}
		return s.runScript(ctx, req, eng, scan)
	case "prepare":
		return s.prepare(req)
	case "deallocate":
		if req.Stmt == "" {
			return fail(CodeBadRequest, "deallocate requires stmt")
		}
		if !s.prepared.Remove(req.Stmt) {
			return fail(CodeBadRequest, "unknown prepared statement %q", req.Stmt)
		}
		return &Response{OK: true, Results: []StmtResult{{Message: fmt.Sprintf("deallocated %s", req.Stmt)}}}
	case "check":
		return s.checkScript(req.Script)
	case "compile":
		blob, _, bad := requestIR(req)
		if bad != nil {
			return bad
		}
		return &Response{OK: true, IR: base64.StdEncoding.EncodeToString(blob)}
	case "stats":
		return s.stats()
	case "metrics":
		// Without a registry the exposition is empty but the call succeeds.
		return &Response{OK: true, Metrics: s.eng.Opts.Obs.PrometheusText()}
	case "trace":
		return &Response{OK: true, Traces: s.eng.Opts.Obs.Traces()}
	case "statements":
		return &Response{OK: true, Statements: s.eng.Opts.Obs.Statements()}
	case "ps":
		return &Response{OK: true, Queries: s.eng.Opts.Obs.LiveQueries()}
	case "workers":
		if s.Dist == nil {
			return &Response{OK: true, Results: []StmtResult{{Message: "not running distributed"}}}
		}
		return &Response{OK: true, Workers: s.Dist.Probe(2 * time.Second)}
	case "cancelq":
		if req.QueryID == 0 {
			return fail(CodeBadRequest, "cancelq requires queryId")
		}
		if !s.eng.Opts.Obs.CancelQuery(req.QueryID) {
			return fail(CodeBadRequest, "no such query id %d", req.QueryID)
		}
		return &Response{OK: true, Results: []StmtResult{{Message: fmt.Sprintf("canceled query %d", req.QueryID)}}}
	}
	return fail(CodeBadRequest, "unknown op %q", req.Op)
}

// The live-query labels of requests without script text, fingerprinted
// once.
var (
	compiledIRFP, compiledIRText   = obs.Fingerprint("(compiled ir)")
	unknownStmtFP, unknownStmtText = obs.Fingerprint("(unknown prepared statement)")
)

// admissionFailure maps a Gate.Acquire error to its wire form: a full
// queue is "overloaded"; a deadline that expired while queued reports
// the same codes execution would.
func admissionFailure(err error) *Response {
	switch {
	case errors.Is(err, ErrOverloaded):
		return fail(CodeOverloaded, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return fail(CodeDeadline, "query deadline exceeded while queued for admission")
	default:
		return fail(CodeCanceled, "query canceled while queued for admission")
	}
}

// requestIR returns the request's script as binary IR, and its parse
// when the request carried text. Op "execir", and "prepare" without a
// script, carry base64 IR; every other op carries script text, which is
// parsed and encoded — the §III front end compiles each script to the IR
// it ships to the backend, so the codec round-trips on all text traffic
// that misses the template cache.
func requestIR(req *Request) ([]byte, *ast.Script, *Response) {
	if req.Op == "execir" || (req.Op == "prepare" && req.Script == "") {
		blob, err := base64.StdEncoding.DecodeString(req.IR)
		if err != nil {
			return nil, nil, fail(CodeBadRequest, "bad IR base64: %v", err)
		}
		return blob, nil, nil
	}
	script, err := parser.Parse(req.Script)
	if err != nil {
		return nil, nil, fail(CodeParse, "%v", err)
	}
	blob, err := ir.Encode(script)
	if err != nil {
		return nil, nil, fail(CodeExec, "%v", err)
	}
	return blob, script, nil
}

// runScript executes ops "exec" and "execir". A text request (scan
// non-nil) first probes the engine's text template cache: a hit runs the
// template's prepared statements with the request's literals bound, with
// no lexing, parsing or IR round trip. Otherwise the request's IR is
// decoded and verified by the engine's shared helper and its statements
// run in order; a text that ran cleanly is then offered to the template
// cache, which builds one on the second sighting. A failing statement
// ends the script; the results of the statements before it stay in the
// response.
func (s *Server) runScript(ctx context.Context, req *Request, eng *exec.Engine, scan *obs.TextScan) *Response {
	params, err := decodeParams(req.Params)
	if err != nil {
		return fail(CodeBadRequest, "%v", err)
	}
	resp := &Response{}
	done := 0 // statements already run from a template
	if scan != nil {
		if hit := eng.ProbeTemplate(req.Script, scan); hit != nil {
			results, err := eng.ExecTemplateContext(ctx, hit, params)
			for _, r := range results {
				resp.Results = append(resp.Results, EncodeResult(r))
			}
			if !errors.Is(err, exec.ErrTemplateStale) {
				if err != nil {
					resp.Code, resp.Error = ErrorCode(err), err.Error()
					return resp
				}
				resp.OK = true
				return resp
			}
			// The catalog moved under the template: the remaining
			// statements take the parse path.
			done = len(results)
		}
	}
	blob, parsed, bad := requestIR(req)
	if bad != nil {
		return bad
	}
	script, err := eng.DecodeIR(blob)
	if err != nil {
		return fail(CodeBadRequest, "%v", err)
	}
	for i := done; i < len(script.Stmts); i++ {
		r, err := eng.ExecStmtContext(ctx, script.Stmts[i], params)
		if err != nil {
			resp.Code = ErrorCode(err)
			resp.Error = fmt.Sprintf("statement %d: %v", i+1, err)
			return resp
		}
		resp.Results = append(resp.Results, EncodeResult(r))
	}
	resp.OK = true
	if scan != nil && done == 0 {
		eng.BuildTemplate(req.Script, scan, parsed)
	}
	return resp
}

// prepare compiles a script (or already-compiled IR) into a server-side
// prepared statement handle: binary IR → fingerprints, plus eager
// semantic analysis and plan-cache warming for read-only scripts. The
// assigned handle id comes back in Response.Stmt.
func (s *Server) prepare(req *Request) *Response {
	if req.Script == "" && req.IR == "" {
		return fail(CodeBadRequest, "prepare requires script or ir")
	}
	blob, _, bad := requestIR(req)
	if bad != nil {
		return bad
	}
	p, err := s.eng.PrepareIR(blob)
	if err != nil {
		return fail(CodeParse, "%v", err)
	}
	id := s.prepared.Add(p)
	return &Response{
		OK: true, Stmt: id,
		Results: []StmtResult{{Message: fmt.Sprintf("prepared %d statement(s) as %s", p.NumStmts(), id)}},
	}
}

// execPrepared runs a prepared handle, binding the request's parameters.
func (s *Server) execPrepared(ctx context.Context, req *Request, eng *exec.Engine) *Response {
	p := s.prepared.Get(req.Stmt)
	if p == nil {
		return fail(CodeBadRequest, "unknown prepared statement %q", req.Stmt)
	}
	params, err := decodeParams(req.Params)
	if err != nil {
		return fail(CodeBadRequest, "%v", err)
	}
	results, err := eng.ExecPreparedContext(ctx, p, params)
	if err != nil {
		return fail(ErrorCode(err), "%v", err)
	}
	resp := &Response{OK: true}
	for _, r := range results {
		resp.Results = append(resp.Results, EncodeResult(r))
	}
	return resp
}

// checkScript statically vets a script, returning every diagnostic —
// errors and lint warnings — so clients can render positioned findings.
// Error keeps the summary form for older clients.
func (s *Server) checkScript(src string) *Response {
	if src == "" {
		return fail(CodeParse, "empty script")
	}
	diags := s.eng.VetScript(src)
	resp := &Response{Diagnostics: diags}
	if err := diags.Err(); err != nil {
		resp.Code = CodeParse
		resp.Error = err.Error()
		return resp
	}
	resp.OK = true
	resp.Results = []StmtResult{{Message: "script is statically valid"}}
	return resp
}

// ErrorCode classifies an execution error for the wire: context aborts
// map to their structured codes, worker failures on the distributed
// path map to "partial", everything else is a plain exec failure.
func ErrorCode(err error) string {
	switch {
	case errors.Is(err, exec.ErrDeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, exec.ErrCanceled):
		return CodeCanceled
	case errors.Is(err, exec.ErrPartial):
		return CodePartial
	default:
		return CodeExec
	}
}

func (s *Server) stats() *Response {
	s.eng.Cat.RLock()
	defer s.eng.Cat.RUnlock()
	resp := &Response{OK: true}
	for _, st := range s.eng.Cat.Stats() {
		resp.Catalog = append(resp.Catalog, CatalogEntry{
			Kind: st.Kind, Name: st.Name, Count: st.Count,
			AvgOutDegree: st.AvgOutDegree, AvgInDegree: st.AvgInDegree,
		})
	}
	return resp
}

// EncodeResult converts an engine result to its wire form.
func EncodeResult(r exec.Result) StmtResult {
	out := StmtResult{Message: r.Message}
	switch r.Kind {
	case exec.ResultTable:
		t := r.Table
		out.Columns = t.Schema().Names()
		for row := uint32(0); row < uint32(t.NumRows()); row++ {
			rec := make([]string, t.NumCols())
			for c := 0; c < t.NumCols(); c++ {
				v := t.Value(row, c)
				if v.IsNull() {
					rec[c] = ""
				} else {
					rec[c] = v.String()
				}
			}
			out.Rows = append(out.Rows, rec)
		}
	case exec.ResultSubgraph:
		out.SubgraphName = r.Subgraph.Name
		out.SubgraphVertices = r.Subgraph.NumVertices()
		out.SubgraphEdges = r.Subgraph.NumEdges()
	}
	return out
}

func decodeParams(raw map[string]Param) (map[string]value.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(map[string]value.Value, len(raw))
	for name, p := range raw {
		t, err := value.ParseType(p.Type)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %v", name, err)
		}
		v, err := value.Parse(p.Value, t)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %v", name, err)
		}
		out[name] = v
	}
	return out, nil
}
