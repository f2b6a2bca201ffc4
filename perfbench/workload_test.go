package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"graql/internal/bsbm"
)

// streamDigest renders a workload's read pool and the first n requests of
// one stream.
func streamDigest(t *testing.T, name string, seed int64, n int) string {
	t.Helper()
	ds := bsbm.Generate(bsbm.Config{ScaleFactor: workloadSF[name], Seed: seed})
	w, err := newWorkload(name, ds, seed)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range w.reads {
		fmt.Fprintf(&sb, "%s %v %q\n", r.q.name, r.params, r.q.script)
	}
	for _, p := range w.writeProbes {
		fmt.Fprintf(&sb, "probe %q\n", p.q.script)
	}
	rng := streamRNG(seed, 16)
	for i := 0; i < n; i++ {
		r := w.draw(rng, 16, i)
		fmt.Fprintf(&sb, "%d %s %d %v %q\n", i, r.label(), r.key, r.params, r.q.script)
	}
	return sb.String()
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a := streamDigest(t, name, 7, 2000)
		if b := streamDigest(t, name, 7, 2000); a != b {
			t.Errorf("%s: the same seed gave different request streams", name)
		}
		if c := streamDigest(t, name, 8, 2000); a == c {
			t.Errorf("%s: different seeds gave the same request stream", name)
		}
	}
}

func TestDatasetIsSeedDeterministic(t *testing.T) {
	a := bsbm.Generate(bsbm.Config{ScaleFactor: 2, Seed: 3})
	b := bsbm.Generate(bsbm.Config{ScaleFactor: 2, Seed: 3})
	c := bsbm.Generate(bsbm.Config{ScaleFactor: 2, Seed: 4})
	if !reflect.DeepEqual(a.Files, b.Files) {
		t.Errorf("the same seed generated different datasets")
	}
	if reflect.DeepEqual(a.Files, c.Files) {
		t.Errorf("different seeds generated the same dataset")
	}
}

func TestDashTextPool(t *testing.T) {
	ds := bsbm.Generate(bsbm.Config{ScaleFactor: workloadSF["dash-text"], Seed: 1})
	w, _ := newWorkload("dash-text", ds, 1)
	seen := map[string]bool{}
	for _, r := range w.reads {
		if seen[r.q.script] {
			t.Fatalf("duplicate text %q", r.q.script)
		}
		seen[r.q.script] = true
		if !r.text || strings.Contains(strings.ToLower(r.q.script), " into ") {
			t.Fatalf("dash-text reads must be side-effect-free text: %q", r.q.script)
		}
	}
	if len(seen) != dashTexts || dashTexts <= 256 {
		t.Errorf("%d distinct texts, want %d (> plan cache capacity 256)", len(seen), dashTexts)
	}
	// The draw is skewed: the most popular text is far above uniform.
	counts := map[int]int{}
	rng := streamRNG(1, 16)
	for i := 0; i < 20000; i++ {
		counts[w.draw(rng, 16, i).key]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if top < 10*20000/dashTexts {
		t.Errorf("hottest text drawn %d times of 20000, want a skewed draw", top)
	}
}

// The write-mix oracle holds only if writes never touch what reads read.
func TestWriteMixSeparatesReadsFromWrites(t *testing.T) {
	ds := bsbm.Generate(bsbm.Config{ScaleFactor: workloadSF["write-mix"], Seed: 5})
	w, _ := newWorkload("write-mix", ds, 5)
	for _, r := range w.reads {
		var p int
		fmt.Sscanf(r.params["Product1"].Value, "p%d", &p)
		if p%2 != 0 {
			t.Fatalf("read of odd product %d", p)
		}
	}
	offerProduct := map[string]int{}
	for _, line := range strings.Split(ds.Files["offers.csv"], "\n") {
		f := strings.Split(line, ",")
		if len(f) > 2 {
			var p int
			fmt.Sscanf(f[2], "p%d", &p)
			offerProduct[f[0]] = p
		}
	}
	rng := streamRNG(5, 16)
	writes := map[string]int{}
	ids := map[string]bool{}
	for i := 0; i < 5000; i++ {
		r := w.draw(rng, 16, i)
		if !r.isWrite() {
			continue
		}
		writes[r.write]++
		s := r.q.script
		switch r.write {
		case "update-offer":
			var id string
			fmt.Sscanf(s[strings.Index(s, "where id = '")+len("where id = '"):], "%s", &id)
			id = strings.TrimSuffix(id, "'")
			if offerProduct[id]%2 != 1 {
				t.Fatalf("update of offer %s of even product %d", id, offerProduct[id])
			}
		default:
			f := strings.Split(s, "', '")
			var p int
			fmt.Sscanf(f[2], "p%d", &p)
			if p%2 != 1 {
				t.Fatalf("insert for even product: %s", s)
			}
			if ids[f[0]] {
				t.Fatalf("insert id reused: %s", s)
			}
			ids[f[0]] = true
		}
	}
	for _, k := range writeKinds {
		if writes[k] == 0 {
			t.Errorf("no %s writes drawn", k)
		}
	}
}

// BENCHMARK.json at the repository root declares the same workloads and
// metrics perfbench reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to perfbench")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, perfbench has %v", names, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, perfbench has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, perfbench has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
