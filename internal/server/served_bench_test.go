package server_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"syscall"
	"testing"
	"time"

	"graql/internal/bsbm"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/server"
)

// Prepared Berlin suite cost in the served configuration (SF10, IR
// verify sampled, default plan cache), with request tracing as
// gems-server serves it (-traces 64) and switched off (-traces 0).
// Requests execute BQ1–BQ8 in turn, each with one of 64 parameter sets
// drawn like the bi-prepared workload's. Besides ns/op it reports the
// process CPU time per request (cpu-ns/op), which counts the parallel
// sweep workers too. It uses only the server's request API, so the file
// (with template_bench_test.go) also runs against an older checkout:
//
//	go test -run '^$' -bench BenchmarkServedSuite -benchtime 8000x ./internal/server

// servedServer loads SF10 into an engine configured like gems-server's
// defaults with -traces set to traces (0 turns tracing off), and returns
// a server over it with the dataset's configuration.
func servedServer(b *testing.B, traces int) (*server.Server, bsbm.Config) {
	ds := bsbm.Generate(bsbm.Config{ScaleFactor: 10, Seed: 1})
	reg := obs.New()
	reg.EnableTracing(traces)
	opts := exec.DefaultOptions()
	opts.Obs = reg
	opts.IRVerify = "sample"
	opts.FileOpener = func(path string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(ds.Files[path])), nil
	}
	eng := exec.New(opts)
	if _, err := eng.ExecScript(bsbm.FullDDL, nil); err != nil {
		b.Fatal(err)
	}
	return server.New(eng, ""), ds.Config
}

// suiteRequests prepares the suite on srv and returns n execute
// requests per query, interleaved BQ1, BQ2, …, BQ8, BQ1, ….
func suiteRequests(b *testing.B, srv *server.Server, cfg bsbm.Config, n int) []*server.Request {
	products, producers, _, types, _, _, _, _ := cfg.Counts()
	rng := rand.New(rand.NewSource(1))
	draw := map[string]func() server.Param{
		"Country1": func() server.Param {
			return server.Param{Type: "varchar", Value: bsbm.Countries[rng.Intn(len(bsbm.Countries))]}
		},
		"Country2": func() server.Param {
			return server.Param{Type: "varchar", Value: bsbm.Countries[rng.Intn(len(bsbm.Countries))]}
		},
		"Product1": func() server.Param {
			return server.Param{Type: "varchar", Value: fmt.Sprintf("p%d", rng.Intn(products))}
		},
		"Type1": func() server.Param { return server.Param{Type: "varchar", Value: fmt.Sprintf("t%d", rng.Intn(types))} },
		"Producer1": func() server.Param {
			return server.Param{Type: "varchar", Value: fmt.Sprintf("m%d", rng.Intn(producers))}
		},
		"Lower": func() server.Param { return server.Param{Type: "integer", Value: fmt.Sprint(rng.Intn(2000))} },
		"MaxPrice": func() server.Param {
			return server.Param{Type: "float", Value: fmt.Sprintf("%.2f", 10+rng.Float64()*9990)}
		},
	}
	stmts := make([]string, len(bsbm.Suite))
	for i, q := range bsbm.Suite {
		r := srv.Do(context.Background(), &server.Request{Op: "prepare", Script: q.Script})
		if !r.OK {
			b.Fatalf("prepare %s: %s", q.ID, r.Error)
		}
		stmts[i] = r.Stmt
	}
	var reqs []*server.Request
	for k := 0; k < n; k++ {
		for i, q := range bsbm.Suite {
			params := map[string]server.Param{}
			for _, p := range q.Params {
				params[p] = draw[p]()
			}
			reqs = append(reqs, &server.Request{Op: "execute", Stmt: stmts[i], Params: params})
		}
	}
	return reqs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkServedSuite runs the prepared suite untraced and traced; the
// traced/untraced cpu-ns/op ratio is the cost of request tracing.
func BenchmarkServedSuite(b *testing.B) {
	for _, traces := range []int{0, 64} {
		b.Run(fmt.Sprintf("traces=%d", traces), func(b *testing.B) {
			srv, cfg := servedServer(b, traces)
			reqs := suiteRequests(b, srv, cfg, 64)
			for _, r := range reqs[:len(bsbm.Suite)] {
				srv.Do(context.Background(), r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			cpu0 := cpuTime()
			for i := 0; i < b.N; i++ {
				if r := srv.Do(context.Background(), reqs[i%len(reqs)]); !r.OK {
					b.Fatal(r.Error)
				}
			}
			b.ReportMetric(float64(cpuTime()-cpu0)/float64(b.N), "cpu-ns/op")
		})
	}
}
