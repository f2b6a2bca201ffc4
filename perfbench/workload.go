package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"graql/internal/bsbm"
	"graql/internal/server"
)

// request is one operation a workload sends.
type request struct {
	q      *query // the script; for text reads and writes, a one-statement query
	text   bool   // send q.script as op "exec" instead of executing the prepared q
	params map[string]server.Param
	key    int    // index of the read in the workload's read pool; -1 for writes
	write  string // write kind ("" for reads)
}

func (r *request) isWrite() bool { return r.write != "" }

func (r *request) label() string {
	if r.isWrite() {
		return r.write
	}
	return r.q.name
}

// wireRequest renders the request for the wire; prep maps prepared
// query names to server handle ids.
func (r *request) wireRequest(prep map[string]string, trace string) *server.Request {
	if r.text {
		return &server.Request{Op: "exec", Script: r.q.script, Params: r.params, Trace: trace}
	}
	return &server.Request{Op: "execute", Stmt: prep[r.q.name], Params: r.params, Trace: trace}
}

// workload is one traffic mix against one served configuration.
// Each workload's reason and mix are documented in README.md and
// BENCHMARK.json.
type workload struct {
	name    string
	sf      int     // Berlin scale factor of the generated dataset
	durable bool    // serve from a write-ahead-logged store (-store, -fsync=true)
	rate    float64 // open-loop requests per second
	wires   []wire  // one connection per entry (at most nproc = 2)

	prepared []*query  // prepared once per server, executed by name
	reads    []request // every distinct read; a read's key indexes this pool
	draw     func(rng *rand.Rand, stream, n int) request
	// writeProbes are one write of each kind, run serially before timing
	// to record the reference answer of that kind.
	writeProbes []request
	// raceTable is the result table the race probe sends unguarded
	// scripts over ("" = no probe).
	raceTable string
}

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"bi-prepared", "dash-text", "write-mix"}

// workloadSF is each workload's Berlin scale factor.
var workloadSF = map[string]int{"bi-prepared": 10, "dash-text": 10, "write-mix": 5}

// newWorkload builds the named workload's request pools from the seed
// and the generated dataset.
func newWorkload(name string, ds *bsbm.Dataset, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch name {
	case "bi-prepared":
		return biPrepared(ds, rng), nil
	case "dash-text":
		return dashText(ds, rng), nil
	case "write-mix":
		return writeMix(ds, rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// streamRNG seeds one request stream (see loopConfig.streams).
func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919 + 17))
}

// suiteSpecs gives the comparison rules of the Berlin suite: which
// result table each script writes and re-reads, and the columns its
// final statement orders by.
var suiteSpecs = map[string]struct {
	into    string
	orderBy []string
}{
	"BQ1": {"T1", []string{"groupCount", "id"}},
	"BQ2": {"T1", []string{"groupCount", "id"}},
	"BQ3": {"T3", []string{"propertyNumeric_1", "id"}},
	"BQ4": {"T4", []string{"price"}},
	"BQ5": {"T5", []string{"avgRating", "id"}},
	"BQ6": {"T6", nil},
	"BQ7": {"", nil},
	"BQ8": {"T8", []string{"id"}},
}

// biParamSets is how many parameter sets each Berlin query draws.
const biParamSets = 64

// biPrepared: prepared execution of the Berlin suite BQ1–BQ8 over TCP.
func biPrepared(ds *bsbm.Dataset, rng *rand.Rand) *workload {
	products, producers, _, types, _, _, _, _ := ds.Config.Counts()
	w := &workload{
		name:  "bi-prepared",
		sf:    ds.Config.ScaleFactor,
		rate:  350,
		wires: []wire{wireTCP, wireTCP},
		// BQ1 and BQ2 both write T1.
		raceTable: "T1",
	}
	country := func() string { return bsbm.Countries[rng.Intn(len(bsbm.Countries))] }
	gen := map[string]func() server.Param{
		"Country1":  func() server.Param { return param("varchar", country()) },
		"Country2":  func() server.Param { return param("varchar", country()) },
		"Product1":  func() server.Param { return param("varchar", fmt.Sprintf("p%d", rng.Intn(products))) },
		"Type1":     func() server.Param { return param("varchar", fmt.Sprintf("t%d", rng.Intn(types))) },
		"Producer1": func() server.Param { return param("varchar", fmt.Sprintf("m%d", rng.Intn(producers))) },
		"Lower":     func() server.Param { return param("integer", itoa(rng.Intn(2000))) },
		"MaxPrice":  func() server.Param { return param("float", fmt.Sprintf("%.2f", 10+rng.Float64()*9990)) },
	}
	for _, bq := range bsbm.Suite {
		sp := suiteSpecs[bq.ID]
		q := &query{name: bq.ID, script: bq.Script, into: sp.into}
		if sp.into != "" {
			q.specs = []stmtSpec{{}, {orderBy: sp.orderBy}}
		}
		w.prepared = append(w.prepared, q)
		for k := 0; k < biParamSets; k++ {
			ps := make(map[string]server.Param, len(bq.Params))
			for _, name := range bq.Params {
				ps[name] = gen[name]()
			}
			w.reads = append(w.reads, request{q: q, params: ps, key: len(w.reads)})
		}
	}
	// The queries take turns and only the parameter set is drawn, so
	// every round runs the suite's exact mix: the queries' costs differ by
	// orders of magnitude.
	w.draw = func(rng *rand.Rand, stream, n int) request {
		q := (stream + n) % len(bsbm.Suite)
		return w.reads[q*biParamSets+rng.Intn(biParamSets)]
	}
	return w
}

// dashTexts is the number of distinct dashboard probe texts, well above
// the plan cache's 256 shapes.
const dashTexts = 1400

// dashGuards renders n constant guard conjuncts in the style of the
// rule guards template-driven dashboards emit; g varies the literals.
func dashGuards(n, g int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\n  and 'region%d' <> 'blocked%d' and %d * 10 + 7 > %d", g+i, g, i, i)
	}
	return sb.String()
}

// dashText: side-effect-free text point probes over Types and Products,
// half over TCP exec and half over HTTP POST /query.
func dashText(ds *bsbm.Dataset, rng *rand.Rand) *workload {
	products, _, _, types, _, _, _, _ := ds.Config.Counts()
	w := &workload{
		name:  "dash-text",
		sf:    ds.Config.ScaleFactor,
		rate:  500,
		wires: []wire{wireTCP, wireHTTP},
	}
	templates := []func() (string, []string){
		func() (string, []string) {
			return fmt.Sprintf("select id, subclassOf, publisher from table Types where id = 't%d'", rng.Intn(types)), nil
		},
		func() (string, []string) {
			return fmt.Sprintf("select top 5 id, subclassOf, publisher, date from table Types\nwhere id = 't%d'%s\norder by id asc, subclassOf desc, publisher asc",
				rng.Intn(types), dashGuards(32, rng.Intn(100))), []string{"id", "subclassOf", "publisher"}
		},
		func() (string, []string) {
			return fmt.Sprintf("select id, label, producer, propertyNumeric_1 from table Products where id = 'p%d'", rng.Intn(products)), nil
		},
		func() (string, []string) {
			return fmt.Sprintf("select top 5 id, label, propertyNumeric_1, propertyNumeric_2 from table Products\nwhere id = 'p%d'%s\norder by id asc, propertyNumeric_1 desc",
				rng.Intn(products), dashGuards(16, rng.Intn(100))), []string{"id", "propertyNumeric_1"}
		},
	}
	// Templates take turns; a template whose literals are used up (there
	// are few types) just stops adding texts.
	seen := map[string]bool{}
	pools := make([][]int, len(templates)) // read keys by template
	for i := 0; len(w.reads) < dashTexts; i++ {
		t := i % len(templates)
		text, order := templates[t]()
		if seen[text] {
			continue
		}
		seen[text] = true
		q := &query{name: fmt.Sprintf("dash%d", len(w.reads)), script: text, specs: []stmtSpec{{orderBy: order}}}
		pools[t] = append(pools[t], len(w.reads))
		w.reads = append(w.reads, request{q: q, text: true, key: len(w.reads)})
	}
	// The templates take turns, so the short/guard-heavy mix is exactly
	// a quarter each in every round; within a template popularity is a
	// Zipf law over the pool's (seeded) order.
	w.draw = func(rng *rand.Rand, stream, n int) request {
		pool := pools[(stream+n)%len(pools)]
		z := rand.NewZipf(rng, 1.05, 8, uint64(len(pool)-1))
		return w.reads[pool[z.Uint64()]]
	}
	return w
}

// writeMix: prepared point reads of a product's offers and reviews,
// with text inserts and price updates, on a durable store.
func writeMix(ds *bsbm.Dataset, rng *rand.Rand) *workload {
	products, _, _, _, vendors, _, persons, _ := ds.Config.Counts()
	w := &workload{
		name:    "write-mix",
		sf:      ds.Config.ScaleFactor,
		durable: true,
		rate:    150,
		wires:   []wire{wireTCP, wireTCP},
	}
	offers := &query{name: "offersOf", specs: []stmtSpec{{}},
		script: "select o.id, o.price, o.deliveryDays from graph ProductVtx (id = %Product1%) <--product-- def o: OfferVtx"}
	reviews := &query{name: "reviewsOf", specs: []stmtSpec{{}},
		script: "select r.id, r.ratings_1, r.reviewer from graph ProductVtx (id = %Product1%) <--reviewFor-- def r: ReviewVtx"}
	w.prepared = []*query{offers, reviews}
	// Reads probe even-numbered products and writes touch odd-numbered
	// ones, so every read's reference answer holds however the writes
	// interleave.
	for k := 0; k < writeReadProducts; k++ {
		p := param("varchar", fmt.Sprintf("p%d", 2*rng.Intn(products/2)))
		for _, q := range w.prepared {
			w.reads = append(w.reads, request{q: q, params: map[string]server.Param{"Product1": p}, key: len(w.reads)})
		}
	}
	updatable := oddProductOffers(ds)
	write := func(rng *rand.Rand, kind, id string) request {
		odd := fmt.Sprintf("p%d", 2*rng.Intn(products/2)+1)
		date := fmt.Sprintf("%04d-%02d-%02d", 2006+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(28))
		var text string
		switch kind {
		case "insert-review":
			text = fmt.Sprintf("insert into Reviews values ('rw%s', 'Review', '%s', 'u%d', date '%s', 'title%s', 'review text', %d, %d, %d, %d, 'pub%d', date '%s')",
				id, odd, rng.Intn(persons), date, id, 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10), rng.Intn(10), date)
		case "insert-offer":
			text = fmt.Sprintf("insert into Offers values ('ow%s', 'Offer', '%s', 'v%d', %.2f, date '%s', date '2009-12-31', %d, 'http://ow%s.example', 'pub%d', date '%s')",
				id, odd, rng.Intn(vendors), 10+rng.Float64()*9990, date, 1+rng.Intn(14), id, rng.Intn(10), date)
		default:
			text = fmt.Sprintf("update Offers set price = %.2f where id = '%s'",
				10+rng.Float64()*9990, updatable[rng.Intn(len(updatable))])
		}
		return request{q: &query{name: kind, script: text}, text: true, key: -1, write: kind}
	}
	for _, kind := range writeKinds {
		w.writeProbes = append(w.writeProbes, write(rng, kind, "probe"))
	}
	w.draw = func(rng *rand.Rand, stream, n int) request {
		if (stream+n)%writeEvery == 0 {
			return write(rng, writeKinds[rng.Intn(len(writeKinds))], fmt.Sprintf("%dx%d", stream, n))
		}
		return w.reads[rng.Intn(len(w.reads))]
	}
	return w
}

const (
	// writeEvery: every 10th request of a write-mix stream writes. Fixed
	// positions rather than a coin toss keep the share exactly 10% in
	// every round, so a round's throughput does not vary with how many
	// of its requests happened to be (ten times slower) writes.
	writeEvery        = 10
	writeReadProducts = 160 // distinct products write-mix reads probe
)

var writeKinds = []string{"insert-review", "insert-offer", "update-offer"}

// oddProductOffers lists the generated offers of odd-numbered products:
// the rows write-mix updates.
func oddProductOffers(ds *bsbm.Dataset) []string {
	var out []string
	for _, line := range strings.Split(ds.Files["offers.csv"], "\n") {
		f := strings.SplitN(line, ",", 4)
		if len(f) < 3 {
			continue
		}
		var p int
		if _, err := fmt.Sscanf(f[2], "p%d", &p); err == nil && p%2 == 1 {
			out = append(out, f[0])
		}
	}
	sort.Strings(out)
	return out
}
