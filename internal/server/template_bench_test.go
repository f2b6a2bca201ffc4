package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graql/internal/server"
)

// Text-request cost in the served configuration (tracing on, IR verify
// sampled, default plan cache, SF10), over dash-text's four point-probe
// shapes. BenchmarkTextHits is the template hit path; the others are
// texts that keep missing. They use only the server's request API, so
// the file (with served_bench_test.go) also runs unchanged against a
// checkout without templates:
//
//	go test -run '^$' -bench 'BenchmarkText' -benchtime 4000x ./internal/server

// servedTextServer loads SF10 into a traced engine configured like the
// served benchmark and returns a server over it with the dataset's
// product and type counts.
func servedTextServer(b *testing.B) (srv *server.Server, products, types int) {
	srv, cfg := servedServer(b, 64)
	products, _, _, types, _, _, _, _ = cfg.Counts()
	return srv, products, types
}

// probeText renders one of dash-text's shapes with the given top N and
// an extra trailing conjunct (empty for none).
func probeText(rng *rand.Rand, shape, top, products, types int, extra string) string {
	guards := func(n int) string {
		var sb strings.Builder
		g := rng.Intn(100)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "\n  and 'region%d' <> 'blocked%d' and %d * 10 + 7 > %d", g+i, g, i, i)
		}
		return sb.String()
	}
	switch shape {
	case 0:
		return fmt.Sprintf("select top %d id, subclassOf, publisher from table Types where id = 't%d'%s", top, rng.Intn(types), extra)
	case 1:
		return fmt.Sprintf("select top %d id, subclassOf, publisher, date from table Types\nwhere id = 't%d'%s%s\norder by id asc, subclassOf desc, publisher asc", top, rng.Intn(types), guards(32), extra)
	case 2:
		return fmt.Sprintf("select top %d id, label, producer, propertyNumeric_1 from table Products where id = 'p%d'%s", top, rng.Intn(products), extra)
	default:
		return fmt.Sprintf("select top %d id, label, propertyNumeric_1, propertyNumeric_2 from table Products\nwhere id = 'p%d'%s%s\norder by id asc, propertyNumeric_1 desc", top, rng.Intn(products), guards(16), extra)
	}
}

// benchTexts sends texts in turn after a short warm-up.
func benchTexts(b *testing.B, srv *server.Server, texts []string) {
	for _, tx := range texts[:16] {
		srv.Do(context.Background(), &server.Request{Op: "exec", Script: tx})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := srv.Do(context.Background(), &server.Request{Op: "exec", Script: texts[i%len(texts)]}); !r.OK {
			b.Fatal(r.Error)
		}
	}
}

// textVariants returns a served-configuration server and n texts.
func textVariants(b *testing.B, n int, text func(rng *rand.Rand, i, products, types int) string) (*server.Server, []string) {
	srv, products, types := servedTextServer(b)
	rng := rand.New(rand.NewSource(2))
	texts := make([]string, n)
	for i := range texts {
		texts[i] = text(rng, i, products, types)
	}
	return srv, texts
}

// BenchmarkTextHits: 1400 literal variants of the four shapes.
func BenchmarkTextHits(b *testing.B) {
	srv, texts := textVariants(b, 1400, func(rng *rand.Rand, i, products, types int) string {
		return probeText(rng, i%4, 5, products, types, "")
	})
	benchTexts(b, srv, texts)
}

// BenchmarkTextTopUnique: every text has its own top N.
func BenchmarkTextTopUnique(b *testing.B) {
	srv, texts := textVariants(b, 20000, func(rng *rand.Rand, i, products, types int) string {
		return probeText(rng, i%4, 100+i, products, types, "")
	})
	benchTexts(b, srv, texts)
}

// BenchmarkTextDateUnique: every text ends in its own date '…'.
func BenchmarkTextDateUnique(b *testing.B) {
	srv, texts := textVariants(b, 20000, func(rng *rand.Rand, i, products, types int) string {
		d := fmt.Sprintf(" and date <> date '%04d-%02d-%02d'", 1000+i/300, 1+i/25%12, 1+i%25)
		return probeText(rng, i%2, 5, products, types, d)
	})
	benchTexts(b, srv, texts)
}

// BenchmarkTextRepeatPool: 20 exact texts per shape (top 1–20), more
// variants than a shape's template chain holds, cycled.
func BenchmarkTextRepeatPool(b *testing.B) {
	srv, texts := textVariants(b, 80, func(rng *rand.Rand, i, products, types int) string {
		return probeText(rng, i%4, 1+i/4, products, types, "")
	})
	benchTexts(b, srv, texts)
}
