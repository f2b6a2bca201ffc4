// Command perfbench is the GraQL repository benchmark. It builds nothing
// itself (run.sh builds gems-server and this program from the checkout);
// it generates a Berlin dataset from the seed, starts gems-server in its
// default serving configuration, drives one workload through the TCP and
// HTTP front-ends from a single load-generator process, checks every
// answer against serially computed references, and prints every metric
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// separate traced run reports the per-layer set. README.md lists the
// workloads, every metric and which end-to-end metric each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"graql/internal/bsbm"
	"graql/internal/server"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // gems-server binary
	work     string // scratch directory for datasets, stores and logs
}

// setupRuns is how many times each run sets the server up; setup_s is
// the median.
const setupRuns = 11

// warmup is the unmeasured closed-loop period before timing starts.
const warmup = time.Second

// openShare is the share of --seconds spent in the open loop (latency);
// the rest is the closed loop (throughput).
const openShare = 0.7

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the dataset and request streams")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.server, "server", "", "gems-server binary")
	flag.StringVar(&o.work, "work", "", "scratch directory")
	flag.Parse()
	o.trace = trace == 1
	if o.server == "" || o.work == "" || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -server, -work and --seconds >= 1 are required")
		os.Exit(2)
	}
	// The generator keeps every response for checking; collecting less
	// often keeps its own pauses out of the latencies it measures.
	debug.SetGCPercent(400)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	res, err := run(o)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.report(os.Stdout)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value (0 when not a sample statistic)
}

// result is everything one run reports.
type result struct {
	workload  string
	trace     bool
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// report prints one line per metric and then the JSON result line with
// the declared metric set of the run's kind.
func (r *result) report(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-12s %-32s %14.6g %s", r.workload, m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintln(w, line)
	}
	declared := endToEnd
	if r.trace {
		declared = perLayer
	}
	out := map[string]any{}
	for _, d := range declared {
		m, ok := r.get(d.name)
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		out[d.name] = map[string]any{"value": m.value, "unit": d.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	fmt.Fprintln(w, string(line))
}

// run performs one benchmark run.
func run(o options) (*result, error) {
	sf, ok := workloadSF[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	ds := bsbm.Generate(bsbm.Config{ScaleFactor: sf, Seed: o.seed})
	w, err := newWorkload(o.workload, ds, o.seed)
	if err != nil {
		return nil, err
	}
	runDir, err := filepath.Abs(filepath.Join(o.work, o.workload))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	dataDir := filepath.Join(runDir, "data")
	if err := ds.WriteDir(dataDir); err != nil {
		return nil, err
	}

	res := &result{workload: w.name, trace: o.trace}
	var setups []float64
	var srv *serverProc
	for i := 0; i < setupRuns; i++ {
		srv.stop()
		var d time.Duration
		if srv, d, err = startServer(o.server, runDir, dataDir, w.durable, false); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	res.add("setup_s", median(setups), "s", len(setups))

	sess, err := openSession(srv, w, o.seed, nil)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	measure := time.Duration(o.seconds) * time.Second
	if o.trace {
		err = sess.traced(res, o, ds, runDir, dataDir, measure)
	} else {
		err = sess.untraced(res, measure)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// session is a set-up server with the workload's statements prepared,
// its reference answers computed and its connections open.
type session struct {
	srv *serverProc
	w   *workload
	lc  *loopConfig
	ck  *checker
	ctl *conn // control connection: metrics, traces, serial checks
}

// openSession prepares the workload on srv. A checker, when given, is
// reused: the dataset, and so every reference answer, is the same.
// Otherwise the reference answers are computed serially here.
func openSession(srv *serverProc, w *workload, seed int64, ck *checker) (*session, error) {
	ctl, err := dial(wireTCP, srv.tcp)
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv, w: w, ctl: ctl}
	prep := map[string]string{}
	for _, q := range w.prepared {
		resp, err := ctl.mustOK(&server.Request{Op: "prepare", Script: q.script})
		if err != nil {
			ctl.close()
			return nil, fmt.Errorf("prepare %s: %v", q.name, err)
		}
		prep[q.name] = resp.Stmt
	}
	if ck == nil {
		ck = &checker{log: os.Stderr, writeRefs: map[string][]server.StmtResult{}, inserted: map[string]int{}}
		if ck.refs, err = computeRefs(ctl, w.reads, prep); err != nil {
			ctl.close()
			return nil, err
		}
		for _, p := range w.writeProbes {
			resp, err := ctl.mustOK(p.wireRequest(prep, ""))
			if err != nil {
				ctl.close()
				return nil, fmt.Errorf("write probe %s: %v", p.write, err)
			}
			ck.writeRefs[p.write] = resp.Results
		}
	}
	s.ck = ck
	s.lc = &loopConfig{w: w, prep: prep, seed: seed}
	for _, wi := range w.wires {
		addr := srv.tcp
		if wi == wireHTTP {
			addr = srv.web
		}
		c, err := dial(wi, addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.lc.conns = append(s.lc.conns, c)
	}
	// Warm up: fill caches and finish lazy set-up before timing.
	if t := ck.check(closedLoop(s.lc, warmup)); t.errors > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed %v", t.errors, t.attempted, t.codes)
	}
	return s, nil
}

func (s *session) close() {
	for _, c := range s.lc.conns {
		c.close()
	}
	s.ctl.close()
}

// rounds is how many open-loop and how many closed-loop rounds the
// untraced run makes, so a passing disturbance of the machine lands in
// one round rather than in the reported median.
const rounds = 10

// settle is the idle pause between a closed-loop round and the next
// open-loop round, so the saturated phase's background work (the
// server's garbage collection) does not start the schedule late.
const settle = 200 * time.Millisecond

// untraced is the end-to-end run: rounds of a closed loop, each followed
// by a round of an open loop at the workload's fixed rate. The median
// latency and the throughput are the median over the rounds. The rounds
// alternate, so a slow spell of the machine that spans a few seconds
// lands in a few rounds of each kind rather than in all of one kind.
func (s *session) untraced(res *result, measure time.Duration) error {
	openDur := time.Duration(float64(measure) * openShare / rounds)
	closedDur := measure/rounds - openDur
	before, err := scrape(s.ctl)
	if err != nil {
		return err
	}
	var st openStats
	var t tally
	var tputs []float64
	closedN := 0
	for r := 0; r < rounds; r++ {
		tc := s.ck.check(closedLoop(s.lc, closedDur))
		t.add(tc)
		tputs = append(tputs, float64(tc.ok)/closedDur.Seconds())
		closedN += tc.attempted
		time.Sleep(settle)
		o, err := openLoop(s.lc, s.w.rate, openDur)
		if err != nil {
			return err
		}
		t.add(s.ck.check(o))
		if err := st.add(o); err != nil {
			return err
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("throughput by round: %.0f ops/s", tputs))
	after, err := scrape(s.ctl)
	if err != nil {
		return err
	}
	rss, err := s.srv.peakRSSMB()
	if err != nil {
		return err
	}

	if err := st.report(res); err != nil {
		return err
	}
	res.add("throughput_ops_s", median(tputs), "ops/s", closedN)
	res.add("rss_peak_mb", rss, "MB", 0)
	var probe *tally
	if s.w.raceTable != "" {
		pt := s.raceProbe()
		if pt.errors+pt.overloaded > 0 {
			return fmt.Errorf("race probe: %d of %d requests failed %v", pt.errors+pt.overloaded, pt.attempted, pt.codes)
		}
		probe = &pt
	}
	if s.w.durable {
		writes := newDist(st.writes)
		p50, err := writes.mustPct("write latency", 0.5)
		if err != nil {
			return err
		}
		p95, err := writes.mustPct("write latency", 0.95)
		if err != nil {
			return err
		}
		res.add("write_p50_ms", p50, "ms", len(writes))
		res.add("write_p95_ms", p95, "ms", len(writes))
		rows := after.delta(before, "graql_rows_inserted_total") + after.delta(before, "graql_rows_updated_total")
		res.add("wal_bytes_per_row", after.delta(before, "graql_wal_appended_bytes_total")/rows, "bytes/row", int(rows))
	}
	s.finish(res, t, probe)
	if s.w.durable {
		return s.checkWrites(res)
	}
	return nil
}

// openStats accumulates open-loop rounds: each round's median read
// latency, every read and write latency, and the generator's lateness.
// It keeps numbers, not responses, so memory stays flat however long the
// run.
type openStats struct {
	p50s   []float64
	reads  []float64
	writes []float64
	late   []float64
}

// add takes one checked round.
func (st *openStats) add(open []*outcome) error {
	sched := make([]time.Duration, len(open))
	sent := make([]time.Duration, len(open))
	for i, o := range open {
		sched[i], sent[i] = o.sched, o.sent
	}
	st.late = append(st.late, lateness(sched, sent)...)
	st.writes = append(st.writes, latencies(open, isWrite)...)
	reads := latencies(open, isRead)
	p50, err := newDist(reads).mustPct("read latency", 0.5)
	if err != nil {
		return err
	}
	st.p50s = append(st.p50s, p50)
	st.reads = append(st.reads, reads...)
	return nil
}

// report adds the read latencies and the generator lateness, and
// rejects the rounds if the generator fell behind. read_p50_ms is the
// median round; read_p99_ms pools every round (a round is too short to
// have ten samples beyond its own p99).
func (st *openStats) report(res *result) error {
	if why := fellBehind(st.late); why != "" {
		return fmt.Errorf("open loop rejected: %s", why)
	}
	lp99, _ := newDist(st.late).pct(lateQuantile)
	res.add("gen.late_p99_ms", lp99, "ms", len(st.late))
	p99, err := newDist(st.reads).mustPct("read latency", 0.99)
	if err != nil {
		return err
	}
	if math.IsInf(p99, 1) {
		return fmt.Errorf("read p99 undefined: more than 1%% of %d reads failed", len(st.reads))
	}
	res.add("read_p50_ms", median(st.p50s), "ms", len(st.reads))
	res.add("read_p99_ms", p99, "ms", len(st.reads))
	res.notes = append(res.notes, fmt.Sprintf("read p50 by round: %.3f ms", st.p50s))
	return nil
}

// raceProbeDur is how long the race probe runs.
const raceProbeDur = time.Second

// raceProbe provokes the result-table race on purpose, after the
// measurement: for raceProbeDur both connections send, in a closed loop
// without the table guard, only the workload's scripts over raceTable.
// Every answer is checked as in the measured traffic. The measured
// traffic is guarded, so the race shows only here.
func (s *session) raceProbe() tally {
	var pool []request
	for _, r := range s.w.reads {
		if r.q.into == s.w.raceTable {
			pool = append(pool, r)
		}
	}
	w := *s.w
	w.draw = func(rng *rand.Rand, _, _ int) request { return pool[rng.Intn(len(pool))] }
	lc := *s.lc
	lc.w, lc.unguarded = &w, true
	return s.ck.check(closedLoop(&lc, raceProbeDur))
}

// finish reports the answer checks of a run: t of the measured traffic,
// probe (nil if none) of the race probe.
func (s *session) finish(res *result, t tally, probe *tally) {
	res.attempted, res.failed = t.attempted, t.failed()
	res.correct = t.wrong == 0
	res.add("error_frac", float64(t.failed())/float64(t.attempted), "fraction", t.attempted)
	res.add("check.wrong_answers", float64(t.race+t.wrong), "count", t.attempted)
	if t.race > 0 {
		res.notes = append(res.notes, fmt.Sprintf(
			"result-table race in measured traffic: %d answers were another concurrent script's shared result table (counted as failed)", t.race))
	}
	if t.wrong > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d wrong answers with no race explanation", t.wrong))
	}
	if probe != nil {
		res.correct = res.correct && probe.wrong == 0
		res.add("check.t1_race", float64(probe.race), "count", probe.attempted)
		res.notes = append(res.notes, fmt.Sprintf(
			"race probe: %d of %d unguarded scripts over %s on two connections read the other script's table; %d other wrong answers",
			probe.race, probe.attempted, s.w.raceTable, probe.wrong))
	}
	if len(t.codes) > 0 {
		var parts []string
		for k, v := range t.codes {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		}
		sort.Strings(parts)
		res.notes = append(res.notes, "error responses: "+strings.Join(parts, " "))
	}
}

// checkWrites confirms every acknowledged insert is visible: the row
// counts must equal the generated counts plus the probes and the inserts
// the server acknowledged, or the run is not correct.
func (s *session) checkWrites(res *result) error {
	_, _, _, _, _, offers, _, reviews := bsbm.Config{ScaleFactor: s.w.sf}.Counts()
	for table, want := range map[string]int{
		"Reviews": reviews + 1 + s.ck.inserted["insert-review"],
		"Offers":  offers + 1 + s.ck.inserted["insert-offer"],
	} {
		resp, err := s.ctl.mustOK(&server.Request{Op: "exec", Script: "select count(*) as n from table " + table})
		if err != nil {
			return err
		}
		if got := resp.Results[0].Rows[0][0]; got != itoa(want) {
			res.correct = false
			res.notes = append(res.notes, fmt.Sprintf("acknowledged writes lost: %s has %s rows, want %d", table, got, want))
		}
	}
	return nil
}
