// Package web implements the paper's second client class: "clients can
// range from a simple command-line interface to web-based front-ends"
// (§III). It exposes a server.Server over HTTP: the JSON query, prepare,
// execute and catalog routes are a codec over the server's request
// pipeline, beside the observability endpoints and a minimal
// self-contained HTML console.
package web

import (
	"encoding/json"
	"html/template"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"graql/internal/cluster"
	"graql/internal/diag"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/server"
)

// Handler serves the GEMS web front-end for one server. The pipeline
// routes (/query, /prepare, /execute, /vet, /catalog and the
// query-cancel route) are a thin codec over server.Server.Do, so
// authentication, admission, deadlines, tracing and error codes are the
// TCP wire's.
type Handler struct {
	srv *server.Server
	eng *exec.Engine
	mux *http.ServeMux
}

// New returns the front-end handler over srv.
//
//	GET  /             the HTML console
//	POST /query        {"script": "...", "params": {"P": {"type": "varchar", "value": "x"}}}
//	                   ({"check": true} runs static analysis only)
//	POST /prepare      {"script": "..."} → {"stmt": "s1"} (compile once, keep the handle)
//	POST /execute      {"stmt": "s1", "params": {...}} → results (run the compiled handle)
//	POST /vet          {"script": "..."} → every static-analysis finding as JSON
//	GET  /catalog      the catalog snapshot as JSON
//	GET  /metrics      Prometheus text exposition of the engine registry
//	GET  /debug/slow   retained slow queries as JSON
//	GET  /debug/traces retained trace trees as JSON (oldest first)
//	GET  /debug/statements  per-statement-shape statistics as JSON
//	GET  /debug/queries     in-flight query table as JSON
//	DELETE /debug/queries/{id}  cancel the in-flight query with that id
//	GET  /healthz      liveness probe (200 once serving)
//	GET  /readyz       readiness probe (catalog reachable + worker pool responsive
//	                   + every distributed worker answering, when running distributed)
//	GET  /workers      distributed worker health as JSON (actively probed)
//	GET  /debug/pprof/ the standard Go profiling endpoints
//
// The pipeline routes take the server token from an "Authorization:
// Bearer" header and a W3C traceparent from the "traceparent" header.
// Non-POST methods on /query are rejected with 405 (the method pattern
// restricts the route). /metrics and the debug endpoints work — with an
// empty exposition — when the engine has no observability registry.
func New(srv *server.Server) *Handler {
	h := &Handler{srv: srv, eng: srv.Engine(), mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /{$}", h.console)
	h.mux.HandleFunc("POST /query", h.query)
	h.mux.HandleFunc("POST /prepare", h.route("prepare"))
	h.mux.HandleFunc("POST /execute", h.route("execute"))
	h.mux.HandleFunc("POST /vet", h.vet)
	h.mux.HandleFunc("GET /catalog", h.catalog)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /debug/slow", h.slow)
	h.mux.HandleFunc("GET /debug/traces", h.traces)
	h.mux.HandleFunc("GET /debug/statements", h.statements)
	h.mux.HandleFunc("GET /debug/queries", h.liveQueries)
	h.mux.HandleFunc("DELETE /debug/queries/{id}", h.cancelQuery)
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /readyz", h.readyz)
	h.mux.HandleFunc("GET /workers", h.workers)
	h.mux.HandleFunc("/debug/pprof/", pprof.Index)
	h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return h
}

// metrics renders the engine's observability registry in the Prometheus
// text exposition format (version 0.0.4).
func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.eng.Opts.Obs.WritePrometheus(w)
}

// slow dumps the retained slow-query ring as JSON, newest last.
func (h *Handler) slow(w http.ResponseWriter, _ *http.Request) {
	reg := h.eng.Opts.Obs
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   reg.SlowQueryCount(),
		"queries": reg.SlowQueries(),
	})
}

// traces dumps the retained complete trace trees as JSON, oldest first.
func (h *Handler) traces(w http.ResponseWriter, _ *http.Request) {
	reg := h.eng.Opts.Obs
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": reg.TracingEnabled(),
		"total":   reg.TraceCount(),
		"traces":  emptyNotNull(reg.Traces()),
	})
}

// statements dumps the per-statement-shape statistics as JSON, most
// expensive shape first.
func (h *Handler) statements(w http.ResponseWriter, _ *http.Request) {
	reg := h.eng.Opts.Obs
	stats := reg.Statements()
	if stats == nil {
		stats = []obs.StmtStat{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"evicted":    reg.StatementsEvicted(),
		"statements": stats,
	})
}

// liveQueries dumps the in-flight query table as JSON, oldest query
// first.
func (h *Handler) liveQueries(w http.ResponseWriter, _ *http.Request) {
	qs := h.eng.Opts.Obs.LiveQueries()
	if qs == nil {
		qs = []obs.QueryInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": qs})
}

// cancelQuery cooperatively cancels one in-flight query by id (op
// "cancelq"); an id the server does not know answers 404.
func (h *Handler) cancelQuery(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		writeJSON(w, http.StatusBadRequest,
			server.Response{Code: server.CodeBadRequest, Error: "bad query id"})
		return
	}
	resp := h.do(r, &server.Request{QueryID: id}, "cancelq")
	status := statusOf(w, resp)
	if resp.Code == server.CodeBadRequest {
		status = http.StatusNotFound
	}
	writeJSON(w, status, resp)
}

// emptyNotNull keeps the traces field a JSON array even when empty.
func emptyNotNull(t []obs.TraceTree) []obs.TraceTree {
	if t == nil {
		return []obs.TraceTree{}
	}
	return t
}

// healthz is the liveness probe: the process serves HTTP.
func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// readyz is the readiness probe: the catalog answers a read-locked
// snapshot, the engine's worker pool completes a trivial sweep within
// the probe budget, and — when running distributed — every cluster
// worker answers a ping. A degraded worker set reports 503 with the
// failing partitions so orchestrators stop routing to this coordinator.
func (h *Handler) readyz(w http.ResponseWriter, _ *http.Request) {
	h.eng.Cat.RLock()
	objects := len(h.eng.Cat.Stats())
	h.eng.Cat.RUnlock()
	if !h.eng.Ready(2 * time.Second) {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ok": false, "reason": "worker pool unresponsive"})
		return
	}
	if dist := h.srv.Dist; dist != nil {
		status := dist.Probe(2 * time.Second)
		var degraded []cluster.WorkerStatus
		for _, ws := range status {
			if !ws.Healthy {
				degraded = append(degraded, ws)
			}
		}
		if len(degraded) > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"ok": false, "reason": "degraded distributed workers",
				"degradedWorkers": degraded,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "catalogObjects": objects, "workers": len(status),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "catalogObjects": objects})
}

// workers exposes the distributed cluster's per-worker health (actively
// probed). Without a distributed transport the list is empty.
func (h *Handler) workers(w http.ResponseWriter, _ *http.Request) {
	dist := h.srv.Dist
	if dist == nil {
		writeJSON(w, http.StatusOK, map[string]any{"distributed": false, "workers": []cluster.WorkerStatus{}})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"distributed": true, "workers": dist.Probe(2 * time.Second)})
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// query runs a script: op "exec", or op "check" (static analysis with
// every diagnostic) when the body sets "check".
func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	var body struct {
		server.Request
		Check bool `json:"check"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	op := "exec"
	if body.Check {
		op = "check"
	}
	h.serve(w, r, &body.Request, op)
}

// route returns the handler of a pipeline route whose body is a
// server.Request and whose op is fixed by the path.
func (h *Handler) route(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req server.Request
		if decodeBody(w, r, &req) {
			h.serve(w, r, &req, op)
		}
	}
}

// catalog serves the catalog snapshot (op "stats") as a bare JSON array.
func (h *Handler) catalog(w http.ResponseWriter, r *http.Request) {
	resp := h.do(r, &server.Request{}, "stats")
	var body any = resp
	if resp.OK {
		body = resp.Catalog
	}
	writeJSON(w, statusOf(w, resp), body)
}

func (h *Handler) serve(w http.ResponseWriter, r *http.Request, req *server.Request, op string) {
	resp := h.do(r, req, op)
	writeJSON(w, statusOf(w, resp), resp)
}

// do runs one HTTP request through the server pipeline. The route fixes
// the op and names the trace root and log label; the headers carry the
// trace context and the bearer token.
func (h *Handler) do(r *http.Request, req *server.Request, op string) *server.Response {
	req.Op = op
	req.Wire, req.Route = "web", r.URL.Path
	req.Trace = r.Header.Get("traceparent")
	req.Auth = ""
	if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
		req.Auth = tok
	}
	return h.srv.Do(r.Context(), req)
}

// statusOf maps a pipeline response to its HTTP status — 401 for auth
// failures, 503 with Retry-After for admission overload, 200 otherwise
// (request-level failures travel in the body's code field) — and sets
// X-Trace-Id on traced responses.
func statusOf(w http.ResponseWriter, resp *server.Response) int {
	if resp.TraceID != "" {
		w.Header().Set("X-Trace-Id", resp.TraceID)
	}
	switch resp.Code {
	case server.CodeAuth:
		return http.StatusUnauthorized
	case server.CodeOverloaded:
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable
	}
	return http.StatusOK
}

// decodeBody decodes a JSON request body, answering 400 with code
// bad_request when it is malformed.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest,
			server.Response{Code: server.CodeBadRequest, Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

// vetResponse is the /vet body: every static-analysis finding, sorted
// by source position, plus severity counts. ok means "no errors"
// (warnings alone do not fail a vet).
type vetResponse struct {
	OK          bool      `json:"ok"`
	Errors      int       `json:"errors"`
	Warnings    int       `json:"warnings"`
	Diagnostics diag.List `json:"diagnostics"`
}

// vet runs the full static-analysis front-end — multi-error recovery
// and the lint tier — over a self-contained script (pipeline op "check")
// and reports every finding with its stable code and line:col position.
// A request the pipeline refuses before analysis (a missing token, an
// empty script) gets the pipeline's response.
func (h *Handler) vet(w http.ResponseWriter, r *http.Request) {
	var req server.Request
	if !decodeBody(w, r, &req) {
		return
	}
	resp := h.do(r, &req, "check")
	if !resp.OK && len(resp.Diagnostics) == 0 {
		writeJSON(w, statusOf(w, resp), resp)
		return
	}
	diags := resp.Diagnostics
	nerr := len(diags.Errors())
	if diags == nil {
		diags = diag.List{} // keep the field a JSON array
	}
	writeJSON(w, http.StatusOK, vetResponse{
		OK:          nerr == 0,
		Errors:      nerr,
		Warnings:    len(diags) - nerr,
		Diagnostics: diags,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

var consoleTmpl = template.Must(template.New("console").Parse(`<!DOCTYPE html>
<html><head><title>GraQL console</title><style>
body{font-family:monospace;margin:2em;max-width:72em}
textarea{width:100%;height:14em;font-family:inherit}
table{border-collapse:collapse;margin-top:1em}
td,th{border:1px solid #999;padding:2px 8px;text-align:left}
.err{color:#b00}
</style></head><body>
<h1>GraQL console</h1>
<p>Enter a GraQL script (create / ingest / select / explain / output).</p>
<textarea id="script">select * from graph [ ] --[ ]--> [ ] into subgraph everything</textarea><br>
<button onclick="run(false)">Run</button>
<button onclick="run(true)">Check only</button>
<div id="out"></div>
<script>
async function run(check) {
  const resp = await fetch('/query', {method:'POST',
    body: JSON.stringify({script: document.getElementById('script').value, check})});
  const data = await resp.json();
  const out = document.getElementById('out');
  out.innerHTML = '';
  if (data.error) {
    out.innerHTML = '<p class="err">' + esc(data.error) + '</p>';
  }
  for (const r of data.results || []) {
    if (r.message) out.innerHTML += '<p>' + esc(r.message) + '</p>';
    if (r.subgraphName) out.innerHTML += '<p>subgraph ' + esc(r.subgraphName) + ': ' +
      r.subgraphVertices + ' vertices, ' + r.subgraphEdges + ' edges</p>';
    if (r.columns) {
      let t = '<table><tr>' + r.columns.map(c => '<th>'+esc(c)+'</th>').join('') + '</tr>';
      for (const row of r.rows || []) {
        t += '<tr>' + row.map(c => '<td>'+esc(c)+'</td>').join('') + '</tr>';
      }
      out.innerHTML += t + '</table>';
    }
  }
}
function esc(s){const d=document.createElement('div');d.innerText=s;return d.innerHTML;}
</script></body></html>`))

func (h *Handler) console(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = consoleTmpl.Execute(w, nil)
}
