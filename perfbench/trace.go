package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"graql/internal/ast"
	"graql/internal/bsbm"
	"graql/internal/exec"
	"graql/internal/ir"
	"graql/internal/lexer"
	"graql/internal/obs"
	"graql/internal/parser"
	"graql/internal/sema"
	"graql/internal/server"
	"graql/internal/value"
)

// The traced run splits --seconds into three parts:
//
//  1. (40%) the untraced open loop on the served configuration, the
//     baseline of trace.overhead_frac;
//  2. (40%) the same open loop on a fresh server that also writes the
//     wide-event query log (-query-log), every request carrying a trace
//     id; the server's trace ring is read back while it fills;
//  3. (at most 20%) the layers' public functions, timed in this process
//     on the very requests of part 2, and (write-mix) a serial sample of
//     writes sent as explain analyze, which commits exactly like the
//     plain write.
//
// Nothing is added to the program: the per-layer numbers come from the
// server's own outputs (response times, trace trees, the query log,
// metrics, explain analyze) and from timing calls into the layers from
// outside.

// ringPoll is how often part 2 reads the server's trace ring (64 trees).
const ringPoll = 200 * time.Millisecond

// explainSamples is how many writes write-mix sends as explain analyze.
const explainSamples = 30

func (s *session) traced(res *result, o options, ds *bsbm.Dataset, runDir, dataDir string, measure time.Duration) error {
	part := measure * 2 / 5

	base, err := openLoop(s.lc, s.w.rate, part)
	if err != nil {
		return err
	}
	var t tally
	t.add(s.ck.check(base))
	var plain result
	var st openStats
	if err := st.add(base); err != nil {
		return err
	}
	if err := st.report(&plain); err != nil {
		return err
	}
	baseP50, _ := plain.get("read_p50_ms")
	s.close()
	s.srv.stop()

	srv, _, err := startServer(o.server, runDir, dataDir, s.w.durable, true)
	if err != nil {
		return err
	}
	ts, err := openSession(srv, s.w, o.seed, s.ck)
	if err != nil {
		return err
	}
	*s = *ts
	s.lc.trace = true
	before, err := scrape(s.ctl)
	if err != nil {
		return err
	}
	allocBefore, err := totalAlloc(srv.web)
	if err != nil {
		return err
	}
	ring, err := startRingReader(srv.tcp)
	if err != nil {
		return err
	}
	outs, err := openLoop(s.lc, s.w.rate, part)
	trees := ring.stop()
	if err != nil {
		return err
	}
	after, err := scrape(s.ctl)
	if err != nil {
		return err
	}
	allocAfter, err := totalAlloc(srv.web)
	if err != nil {
		return err
	}
	t.add(s.ck.check(outs))
	var traced result
	st = openStats{}
	if err := st.add(outs); err != nil {
		return err
	}
	if err := st.report(&traced); err != nil {
		return err
	}
	tracedP50, _ := traced.get("read_p50_ms")
	events, err := readQueryLog(srv.logPath)
	if err != nil {
		return err
	}

	// Part 3 starts here; the explain analyze sample runs against the
	// traced server, the layer timings in this process.
	if s.w.durable {
		if err := s.explainWrites(res); err != nil {
			return err
		}
	}
	var wires []wire
	for _, c := range s.lc.conns {
		wires = append(wires, c.wire)
	}
	lt, err := timeLayers(ds, outs, wires, events, measure-2*part)
	if err != nil {
		return err
	}

	n := float64(len(outs))
	res.add("trace.overhead_frac", (tracedP50.value-baseP50.value)/baseP50.value, "fraction", len(outs))
	s.serverLayers(res, outs, events)
	s.spanLayers(res, outs, trees, events, lt)
	lt.report(res)
	res.add("exec.edges_traversed_per_req", after.delta(before, "graql_edges_traversed_total")/n, "count", len(outs))
	res.add("exec.parallel_sweeps_per_req", after.delta(before, "graql_parallel_sweeps_total")/n, "count", len(outs))
	res.add("go.alloc_bytes_per_op", float64(allocAfter-allocBefore)/n, "bytes", len(outs))
	res.add("go.gc_cycles_per_kop", after.delta(before, "go_gc_cycles_total")/n*1000, "count", len(outs))
	if writes := countOK(outs, isWrite); writes > 0 {
		res.add("storage.wal_bytes_per_write", after.delta(before, "graql_wal_appended_bytes_total")/float64(writes), "bytes", writes)
		if c := after.delta(before, "graql_wal_fsync_seconds_count"); c > 0 {
			res.add("storage.wal_fsync_us", after.delta(before, "graql_wal_fsync_seconds_sum")/c*1e6, "us", int(c))
		}
	}
	s.finish(res, t, nil)
	return nil
}

func countOK(outs []*outcome, keep func(*outcome) bool) int {
	n := 0
	for _, o := range outs {
		if keep(o) && !o.failed() {
			n++
		}
	}
	return n
}

// ringReader polls the server's trace ring and keeps every tree it sees.
// Only its goroutine touches trees until stop has waited for it.
type ringReader struct {
	c     *conn
	quit  chan struct{}
	done  chan struct{}
	trees map[string]obs.TraceTree
}

func startRingReader(addr string) (*ringReader, error) {
	c, err := dial(wireTCP, addr)
	if err != nil {
		return nil, err
	}
	r := &ringReader{c: c, quit: make(chan struct{}), done: make(chan struct{}), trees: map[string]obs.TraceTree{}}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(ringPoll)
		defer tick.Stop()
		for {
			r.poll()
			select {
			case <-r.quit:
				r.poll()
				return
			case <-tick.C:
			}
		}
	}()
	return r, nil
}

func (r *ringReader) poll() {
	resp, err := r.c.mustOK(&server.Request{Op: "trace"})
	if err != nil {
		return
	}
	for _, t := range resp.Traces {
		r.trees[t.TraceID] = t
	}
}

func (r *ringReader) stop() map[string]obs.TraceTree {
	close(r.quit)
	<-r.done
	r.c.close()
	return r.trees
}

// totalAlloc reads the server's cumulative heap allocation (MemStats
// TotalAlloc) from the allocs profile's text form.
func totalAlloc(web string) (uint64, error) {
	body, err := httpGet(web, "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	m := regexp.MustCompile(`# TotalAlloc = (\d+)`).FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("no TotalAlloc in the allocs profile")
	}
	return strconv.ParseUint(string(m[1]), 10, 64)
}

// stmtEvent is one wide-event query-log line.
type stmtEvent struct {
	Msg         string `json:"msg"`
	TraceID     string `json:"trace_id"`
	Kind        string `json:"kind"`
	Rows        int64  `json:"rows"`
	RowsScanned int64  `json:"rows_scanned"`
	QueueWaitUs int64  `json:"queue_wait_us"`
	PlanHit     bool   `json:"plan_hit"`
}

// readQueryLog collects the server's wide events by trace id.
func readQueryLog(path string) (map[string][]stmtEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]stmtEvent{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.Contains(string(line), `"msg":"query"`) {
			continue
		}
		var ev stmtEvent
		if json.Unmarshal(line, &ev) == nil && ev.Msg == "query" && ev.TraceID != "" {
			out[ev.TraceID] = append(out[ev.TraceID], ev)
		}
	}
	return out, sc.Err()
}

// serverLayers reports the server-side numbers of the traced loop that
// come from responses and wide events.
func (s *session) serverLayers(res *result, outs []*outcome, events map[string][]stmtEvent) {
	var handle, wireOver, tcpRTT, webRTT, bytes, queue []float64
	var hits, selects, scanned, rows float64
	// A request found its connection idle when the connection's previous
	// response had arrived before it was sent; only those round trips
	// are free of pipelining wait.
	lastRecv := make([]time.Duration, len(s.lc.conns))
	for _, o := range outs {
		idle := lastRecv[o.conn] <= o.sent
		lastRecv[o.conn] = o.recv
		if o.failed() {
			continue
		}
		bytes = append(bytes, float64(o.bytes))
		switch s.lc.conns[o.conn].wire {
		case wireTCP:
			handle = append(handle, float64(o.resp.ElapsedUs))
			if idle {
				tcpRTT = append(tcpRTT, us(o.rtt()))
				wireOver = append(wireOver, us(o.rtt())-float64(o.resp.ElapsedUs))
			}
		case wireHTTP:
			if idle {
				webRTT = append(webRTT, us(o.rtt()))
			}
		}
		for _, ev := range events[o.trace] {
			if ev.Kind == "select" {
				selects++
				scanned += float64(ev.RowsScanned)
				rows += float64(ev.Rows)
				if ev.PlanHit {
					hits++
				}
			}
		}
		queue = append(queue, float64(queueWait(events[o.trace])))
	}
	res.add("server.handle_us", newDist(handle).mean(), "us", len(handle))
	res.add("server.queue_wait_us", newDist(queue).mean(), "us", len(queue))
	res.add("wire.overhead_us", median(wireOver), "us", len(wireOver))
	res.add("wire.resp_bytes", newDist(bytes).mean(), "bytes", len(bytes))
	res.add("tcp.rtt_us", median(tcpRTT), "us", len(tcpRTT))
	res.add("web.rtt_us", median(webRTT), "us", len(webRTT))
	if selects > 0 {
		res.add("exec.plancache_hit_frac", hits/selects, "fraction", int(selects))
	}
	if rows > 0 {
		res.add("exec.rows_scanned_per_row", scanned/rows, "ratio", int(rows))
	}
}

// queueWait is a request's admission wait: every statement of the
// request reports the same wait.
func queueWait(evs []stmtEvent) int64 {
	var qw int64
	for _, ev := range evs {
		qw = max(qw, ev.QueueWaitUs)
	}
	return qw
}

// opBuckets are the operator span actions reported on their own; every
// other operator action counts as "other".
var opBuckets = map[string]bool{"scan": true, "expand": true, "sweep": true, "filter": true, "group": true, "sort": true, "top": true}

// spanLayers reports statement and operator self times from the trace
// trees of the traced loop, and the share of end-to-end time no measured
// layer covers.
func (s *session) spanLayers(res *result, outs []*outcome, trees map[string]obs.TraceTree, events map[string][]stmtEvent, lt *layerTimes) {
	stmtSum := map[string]float64{}
	stmtN := map[string]int{}
	ops := map[string]float64{}
	var stmtSelf, latency, unaccounted float64
	sampled := 0
	for i, o := range outs {
		tree, ok := trees[o.trace]
		if !ok || o.failed() || len(tree.Roots) != 1 {
			continue
		}
		sampled++
		root := tree.Roots[0]
		var stmts float64
		for _, st := range root.Children {
			if st.Action != "statement" {
				continue
			}
			stmts += float64(st.ElapsedUs)
			stmtSelf += selfUs(st)
			walkOps(st.Children, ops)
		}
		if !o.req.text {
			stmtSum[o.req.q.name] += stmts
			stmtN[o.req.q.name]++
		}
		// The server's handling time, and the part of it the layers
		// explain: admission wait, fingerprint, parse, IR round trip,
		// statement execution (analysis and operators) and encoding.
		// The HTTP root span starts after the fingerprint and admission;
		// on TCP the response time covers both, and the wide event
		// measures the admission wait.
		handle := float64(root.ElapsedUs)
		explained := stmts + lt.frontEnd(i) + lt.encode[i]
		if s.lc.conns[o.conn].wire == wireTCP {
			handle = float64(o.resp.ElapsedUs)
			explained += float64(queueWait(events[o.trace]))
		} else {
			explained -= lt.fingerprint[i]
		}
		unaccounted += max(0, handle-explained)
		latency += us(o.latency())
	}
	for _, q := range []string{"BQ1", "BQ2", "BQ3", "BQ4", "BQ5", "BQ6", "BQ7", "BQ8"} {
		if stmtN[q] > 0 {
			res.add("exec.stmt_us."+q, stmtSum[q]/float64(stmtN[q]), "us", stmtN[q])
		}
	}
	if sampled == 0 {
		return
	}
	for action, v := range ops {
		res.add("exec.op."+action+"_self_us", v/float64(sampled), "us", sampled)
	}
	res.add("exec.stmt_self_us", stmtSelf/float64(sampled), "us", sampled)
	res.add("trace.unaccounted_frac", unaccounted/latency, "fraction", sampled)
}

// walkOps adds every operator span's self time to its action bucket.
func walkOps(spans []*obs.SpanNode, ops map[string]float64) {
	for _, sp := range spans {
		action := sp.Action
		if !opBuckets[action] {
			action = "other"
		}
		ops[action] += selfUs(sp)
		walkOps(sp.Children, ops)
	}
}

// selfUs is a span's time minus the time of its children.
func selfUs(sp *obs.SpanNode) float64 {
	self := float64(sp.ElapsedUs)
	for _, c := range sp.Children {
		self -= float64(c.ElapsedUs)
	}
	return max(0, self)
}

// explainWrites sends a serial sample of writes as explain analyze and
// splits each write's time into its pipeline steps.
func (s *session) explainWrites(res *result) error {
	stream := s.lc.streams()
	rng := streamRNG(s.lc.seed, stream)
	var build, maint, wal, commit []float64
	for i := 0; len(build) < explainSamples; i++ {
		r := s.w.draw(rng, stream, i)
		if !r.isWrite() {
			continue
		}
		resp, err := s.ctl.mustOK(&server.Request{Op: "exec", Script: "explain analyze " + r.q.script})
		if err != nil {
			return err
		}
		steps := resp.Results[0]
		ai, ti := indexOf(steps.Columns, "action"), indexOf(steps.Columns, "time_us")
		if ai < 0 || ti < 0 {
			return fmt.Errorf("explain analyze: unexpected columns %v", steps.Columns)
		}
		var b, m, w, c float64
		for _, row := range steps.Rows {
			v, _ := strconv.ParseFloat(row[ti], 64)
			switch a := row[ai]; {
			case a == "insert" || a == "update" || a == "delete":
				b += v
			case strings.HasPrefix(a, "extend-") || strings.HasPrefix(a, "rebuild-"):
				m += v
			case a == "wal":
				w += v
			case a == "commit":
				c += v
			}
		}
		// The statement step's time includes the index maintenance below it.
		build = append(build, max(0, b-m))
		maint = append(maint, m)
		wal = append(wal, w)
		commit = append(commit, c)
	}
	res.add("exec.dml_build_us", newDist(build).mean(), "us", len(build))
	res.add("exec.dml_maint_us", newDist(maint).mean(), "us", len(maint))
	res.add("exec.dml_wal_us", newDist(wal).mean(), "us", len(wal))
	res.add("exec.dml_commit_us", newDist(commit).mean(), "us", len(commit))
	return nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// layerTimes holds, per traced request, the time the front-end layers,
// analysis and the result encoder take on that request's own text and
// result, timed in this process.
type layerTimes struct {
	fingerprint, lex, parse, encodeIR, decodeIR, verify, analyze, encode, irBytes []float64
	parseAllocs, parseBytes                                                       float64
	texts                                                                         int
}

// frontEnd is the text front end's time on request i (zero for the
// parts a request's path skips).
func (lt *layerTimes) frontEnd(i int) float64 {
	return lt.fingerprint[i] + lt.parse[i] + lt.encodeIR[i] + lt.decodeIR[i] + lt.verify[i]
}

// timeLayers times the layers on the traced requests, following each
// request's path: every request is fingerprinted; text requests are
// lexed and parsed; text requests over TCP also round-trip the binary IR
// (the HTTP front end executes the parsed script directly); a statement
// is analyzed when its wide event says it missed the plan cache; a
// read's result is encoded. It gives up after budget (later requests
// then count nothing).
func timeLayers(ds *bsbm.Dataset, outs []*outcome, wires []wire, events map[string][]stmtEvent, budget time.Duration) (*layerTimes, error) {
	n := len(outs)
	lt := &layerTimes{
		fingerprint: make([]float64, n), lex: make([]float64, n), parse: make([]float64, n),
		encodeIR: make([]float64, n), decodeIR: make([]float64, n), verify: make([]float64, n),
		analyze: make([]float64, n), encode: make([]float64, n), irBytes: make([]float64, n),
	}
	eng, err := loadEngine(ds)
	if err != nil {
		return nil, err
	}
	// One in-process execution per distinct read gives the results the
	// encoder is timed on, and creates the result tables later
	// statements of a script are analyzed against.
	results := map[int][]exec.Result{}
	reg := obs.New()
	var texts []string
	start := time.Now()
	for i, o := range outs {
		if time.Since(start) > budget {
			break
		}
		src := o.req.q.script
		t0 := time.Now()
		reg.FingerprintCached(src)
		lt.fingerprint[i] = us(time.Since(t0))
		if !o.req.isWrite() {
			rs, ok := results[o.req.key]
			if !ok {
				if rs, err = runInProcess(eng, src, o.req.params); err != nil {
					return nil, fmt.Errorf("in-process %s: %v", o.req.label(), err)
				}
				results[o.req.key] = rs
			}
			t0 = time.Now()
			wr := &server.Response{OK: true}
			for _, r := range rs {
				wr.Results = append(wr.Results, server.EncodeResult(r))
			}
			if _, err := json.Marshal(wr); err != nil {
				return nil, err
			}
			lt.encode[i] = us(time.Since(t0))
		}
		if o.req.text {
			texts = append(texts, src)
			t0 = time.Now()
			if _, err := lexer.Lex(src); err != nil {
				return nil, err
			}
			lt.lex[i] = us(time.Since(t0))
		}
		t0 = time.Now()
		script, err := parser.Parse(src)
		if err != nil {
			return nil, err
		}
		if o.req.text {
			lt.parse[i] = us(time.Since(t0))
		}
		lt.analyze[i] = timeAnalyze(eng, script, events[o.trace])
		if !o.req.text || wires[o.conn] != wireTCP {
			continue
		}
		t0 = time.Now()
		blob, err := ir.Encode(script)
		lt.encodeIR[i] = us(time.Since(t0))
		if err != nil {
			return nil, err
		}
		lt.irBytes[i] = float64(len(blob))
		t0 = time.Now()
		decoded, err := ir.Decode(blob)
		lt.decodeIR[i] = us(time.Since(t0))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if err := ir.Verify(decoded); err != nil {
			return nil, err
		}
		// The served configuration verifies one in 64.
		lt.verify[i] = us(time.Since(t0)) / 64
	}
	if len(texts) > 0 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, src := range texts {
			parser.Parse(src)
		}
		runtime.ReadMemStats(&m1)
		lt.parseAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(texts))
		lt.parseBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(texts))
		lt.texts = len(texts)
	}
	return lt, nil
}

// report adds the per-request means of the timed layers. Analysis is
// part of the statement spans, so it is reported but not explained twice.
func (lt *layerTimes) report(res *result) {
	mean := func(xs []float64) float64 { return newDist(xs).mean() }
	n := len(lt.fingerprint)
	res.add("obs.fingerprint_us", mean(lt.fingerprint), "us", n)
	res.add("lexer.lex_us", mean(lt.lex), "us", n)
	res.add("parser.parse_us", mean(lt.parse), "us", n)
	res.add("parser.allocs", lt.parseAllocs, "count", lt.texts)
	res.add("parser.alloc_bytes", lt.parseBytes, "bytes", lt.texts)
	res.add("ir.encode_us", mean(lt.encodeIR), "us", n)
	res.add("ir.decode_us", mean(lt.decodeIR), "us", n)
	res.add("ir.verify_us", mean(lt.verify), "us", n)
	var sized []float64
	for _, b := range lt.irBytes {
		if b > 0 {
			sized = append(sized, b)
		}
	}
	res.add("ir.bytes", mean(sized), "bytes", len(sized))
	res.add("sema.analyze_us", mean(lt.analyze), "us", n)
	res.add("server.encode_us", mean(lt.encode), "us", n)
}

// timeAnalyze times semantic analysis of the script's statements that
// missed the plan cache, by their wide events (in statement order).
func timeAnalyze(eng *exec.Engine, script *ast.Script, evs []stmtEvent) float64 {
	eng.Cat.RLock()
	defer eng.Cat.RUnlock()
	var total time.Duration
	for j, st := range script.Stmts {
		if j < len(evs) && evs[j].PlanHit {
			continue
		}
		an := &sema.Analyzer{Cat: eng.Cat}
		t0 := time.Now()
		an.Analyze(st)
		total += time.Since(t0)
	}
	return us(total)
}

// loadEngine builds an in-process engine over the same dataset.
func loadEngine(ds *bsbm.Dataset) (*exec.Engine, error) {
	opts := exec.DefaultOptions()
	opts.FileOpener = func(path string) (io.ReadCloser, error) {
		body, ok := ds.Files[path]
		if !ok {
			return nil, fmt.Errorf("no generated file %s", path)
		}
		return io.NopCloser(strings.NewReader(body)), nil
	}
	eng := exec.New(opts)
	if _, err := eng.ExecScript(bsbm.FullDDL, nil); err != nil {
		return nil, err
	}
	return eng, nil
}

// runInProcess executes one read in the in-process engine.
func runInProcess(eng *exec.Engine, src string, params map[string]server.Param) ([]exec.Result, error) {
	vals := make(map[string]value.Value, len(params))
	for name, p := range params {
		t, err := value.ParseType(p.Type)
		if err != nil {
			return nil, err
		}
		if vals[name], err = value.Parse(p.Value, t); err != nil {
			return nil, err
		}
	}
	return eng.ExecScript(src, vals)
}
