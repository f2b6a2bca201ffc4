package web_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graql/internal/exec"
	"graql/internal/server"
	"graql/internal/web"
)

func testServer(t *testing.T) (*httptest.Server, *exec.Engine) {
	t.Helper()
	eng := citiesEngine(t, exec.DefaultOptions())
	ts := httptest.NewServer(web.New(server.New(eng, "")))
	t.Cleanup(ts.Close)
	return ts, eng
}

// citiesEngine builds the three-city road graph (p→q→r) the web tests
// query.
func citiesEngine(t *testing.T, opts exec.Options) *exec.Engine {
	t.Helper()
	eng := exec.New(opts)
	if _, err := eng.ExecScript(`
create table Cities(id varchar(8), country varchar(2))
create table Roads(src varchar(8), dst varchar(8))
create vertex City(id) from table Cities
create edge road with vertices (City as A, City as B)
from table Roads
where Roads.src = A.id and Roads.dst = B.id
`, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Cities", strings.NewReader("p,US\nq,US\nr,CA\n")); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Roads", strings.NewReader("p,q\nq,r\n")); err != nil {
		t.Fatal(err)
	}
	return eng
}

func postQuery(t *testing.T, ts *httptest.Server, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWebQuery(t *testing.T) {
	ts, _ := testServer(t)
	out := postQuery(t, ts, `{"script": "select B.id from graph City (id = %Start%) --road--> def B: City ( )",
		"params": {"Start": {"type": "varchar", "value": "p"}}}`)
	if out["ok"] != true {
		t.Fatalf("response: %v", out)
	}
	results := out["results"].([]any)
	first := results[0].(map[string]any)
	rows := first["rows"].([]any)
	if len(rows) != 1 || rows[0].([]any)[0] != "q" {
		t.Errorf("rows = %v", rows)
	}
}

func TestWebQueryErrorsAndCheck(t *testing.T) {
	ts, _ := testServer(t)
	out := postQuery(t, ts, `{"script": "select x from table Missing"}`)
	if out["ok"] == true || !strings.Contains(out["error"].(string), "unknown table") {
		t.Errorf("error response: %v", out)
	}
	out = postQuery(t, ts, `{"script": "create table T(a date)\nselect a from table T where a > 1.5", "check": true}`)
	if out["ok"] == true {
		t.Errorf("check should fail: %v", out)
	}
	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestWebCatalog(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []server.CatalogEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Kind == "edge" && e.Name == "road" && e.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("catalog entries: %+v", entries)
	}
}

func TestWebConsoleServed(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "GraQL console") {
		t.Errorf("console page missing: %.200s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %s", ct)
	}
}

// TestWebSubgraphResult: subgraph results arrive with their sizes.
func TestWebSubgraphResult(t *testing.T) {
	ts, _ := testServer(t)
	out := postQuery(t, ts, `{"script": "select * from graph City (country = 'US') --road--> City ( ) into subgraph us"}`)
	if out["ok"] != true {
		t.Fatalf("response: %v", out)
	}
	first := out["results"].([]any)[0].(map[string]any)
	if first["subgraphName"] != "us" || first["subgraphVertices"].(float64) != 3 {
		t.Errorf("subgraph result: %v", first)
	}
}
