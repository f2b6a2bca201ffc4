package main

import (
	"strconv"
	"strings"

	"graql/internal/server"
)

// decl declares one metric of the JSON result line; BENCHMARK.json
// lists the same names and units (metrics_test.go keeps them in step).
type decl struct {
	name, unit string
}

// endToEnd is what a user of the server sees; every workload reports
// each of them with -trace 0.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer is the traced run's breakdown; every workload reports each of
// them with -trace 1, as 0 where the workload does not exercise the
// layer.
var perLayer = []decl{
	{"obs.fingerprint_us", "us"},
	{"lexer.lex_us", "us"},
	{"parser.parse_us", "us"},
	{"parser.allocs", "count"},
	{"parser.alloc_bytes", "bytes"},
	{"ir.encode_us", "us"},
	{"ir.decode_us", "us"},
	{"ir.verify_us", "us"},
	{"ir.bytes", "bytes"},
	{"sema.analyze_us", "us"},
	{"exec.plancache_hit_frac", "fraction"},
	{"exec.stmt_us.BQ1", "us"},
	{"exec.stmt_us.BQ2", "us"},
	{"exec.stmt_us.BQ3", "us"},
	{"exec.stmt_us.BQ4", "us"},
	{"exec.stmt_us.BQ5", "us"},
	{"exec.stmt_us.BQ6", "us"},
	{"exec.stmt_us.BQ7", "us"},
	{"exec.stmt_us.BQ8", "us"},
	{"exec.op.scan_self_us", "us"},
	{"exec.op.expand_self_us", "us"},
	{"exec.op.sweep_self_us", "us"},
	{"exec.op.filter_self_us", "us"},
	{"exec.op.group_self_us", "us"},
	{"exec.op.sort_self_us", "us"},
	{"exec.op.top_self_us", "us"},
	{"exec.op.other_self_us", "us"},
	{"exec.stmt_self_us", "us"},
	{"exec.rows_scanned_per_row", "ratio"},
	{"exec.edges_traversed_per_req", "count"},
	{"exec.parallel_sweeps_per_req", "count"},
	{"storage.wal_bytes_per_write", "bytes"},
	{"storage.wal_fsync_us", "us"},
	{"exec.dml_build_us", "us"},
	{"exec.dml_maint_us", "us"},
	{"exec.dml_wal_us", "us"},
	{"exec.dml_commit_us", "us"},
	{"server.handle_us", "us"},
	{"server.queue_wait_us", "us"},
	{"server.encode_us", "us"},
	{"wire.overhead_us", "us"},
	{"wire.resp_bytes", "bytes"},
	{"web.rtt_us", "us"},
	{"tcp.rtt_us", "us"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles_per_kop", "count"},
	{"trace.overhead_frac", "fraction"},
	{"trace.unaccounted_frac", "fraction"},
}

// counters is one scrape of the server's metrics exposition: each family
// summed over its label sets.
type counters map[string]float64

// scrape reads the server's Prometheus exposition over op "metrics".
func scrape(c *conn) (counters, error) {
	resp, err := c.mustOK(&server.Request{Op: "metrics"})
	if err != nil {
		return nil, err
	}
	return parseExposition(resp.Metrics), nil
}

func parseExposition(text string) counters {
	out := counters{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// delta is the change of one family since an earlier scrape.
func (c counters) delta(before counters, name string) float64 { return c[name] - before[name] }
