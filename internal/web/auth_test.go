package web_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graql/internal/exec"
	"graql/internal/server"
	"graql/internal/web"
)

// TestWebAuthToken checks a token server guards every pipeline route
// (and /vet) over HTTP with the "Authorization: Bearer" header, while the health
// and metrics probes stay open.
func TestWebAuthToken(t *testing.T) {
	ts := httptest.NewServer(web.New(server.New(citiesEngine(t, exec.DefaultOptions()), "sek")))
	t.Cleanup(ts.Close)

	send := func(method, path, auth, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}

	const query = `{"script": "select id from table Cities"}`
	guarded := []struct{ method, path, body string }{
		{"POST", "/query", query},
		{"POST", "/prepare", query},
		{"POST", "/execute", `{"stmt": "s1"}`},
		{"POST", "/vet", query},
		{"GET", "/catalog", ""},
		{"DELETE", "/debug/queries/1", ""},
	}
	for _, g := range guarded {
		for _, auth := range []string{"", "Bearer wrong", "sek"} {
			status, body := send(g.method, g.path, auth, g.body)
			if status != http.StatusUnauthorized || !strings.Contains(body, `"code":"auth"`) {
				t.Errorf("%s %s with Authorization %q: %d %s, want 401 with code auth",
					g.method, g.path, auth, status, body)
			}
		}
	}

	if status, body := send("POST", "/query", "Bearer sek", query); status != http.StatusOK || !strings.Contains(body, `"ok":true`) {
		t.Errorf("authorized /query: %d %s", status, body)
	}
	if status, body := send("GET", "/catalog", "Bearer sek", ""); status != http.StatusOK || !strings.Contains(body, `"Cities"`) {
		t.Errorf("authorized /catalog: %d %s", status, body)
	}
	const vet = `{"script": "create table T(id varchar(8))\nselect id from table T"}`
	if status, body := send("POST", "/vet", "Bearer sek", vet); status != http.StatusOK || !strings.Contains(body, `"ok":true`) || !strings.Contains(body, `"diagnostics":[]`) {
		t.Errorf("authorized /vet: %d %s", status, body)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if status, body := send("GET", path, "", ""); status != http.StatusOK {
			t.Errorf("GET %s without a token: %d %s, want 200", path, status, body)
		}
	}
}
