package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/serve"
)

func postAnalyze(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPAnalyze(t *testing.T) {
	svc := newService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	want, err := engine.Analyze(guest.Program("unary"), engine.Inputs{Secret: []byte{200}}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postAnalyze(t, ts, `{"program":"unary","secret_b64":"yA==","timeout_ms":5000}`) // 0xc8 = 200
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Bits != want.Bits || out.Program != "unary" || out.Attempts != 1 {
		t.Fatalf("response %+v, want bits=%d", out, want.Bits)
	}
	if out.OutputBytes != len(want.Output) || out.Cut == "" {
		t.Fatalf("response %+v missing execution facts", out)
	}
}

// A per-request solver budget of 1 forces the degradation path through the
// full HTTP surface: 200 with degraded=true and no cut.
func TestHTTPAnalyzeDegradedOverride(t *testing.T) {
	svc := newService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := postAnalyze(t, ts, `{"program":"unary","secret":"x","solver_budget":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.DegradedReason == "" {
		t.Fatalf("override did not degrade: %+v", out)
	}
	if out.Cut != "" {
		t.Fatalf("degraded response still carries a cut: %+v", out)
	}
}

// A budget override sets only the caps it names: a request carrying only
// a solver budget keeps the program's output cap, so unary registered
// with a 2-byte output cap still refuses it (422), as it refuses the
// plain request. A negative cap is no override either.
func TestHTTPBudgetOverrideKeepsProgramCaps(t *testing.T) {
	svc := serve.New(serve.Options{})
	svc.Register("unary", guest.Program("unary"), engine.Config{Budget: engine.Budget{MaxOutputBytes: 2}})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"program":"unary","secret":"x"}`,
		`{"program":"unary","secret":"x","solver_budget":1000000}`,
		`{"program":"unary","secret":"x","solver_budget":1000000,"max_output_bytes":-1}`,
	} {
		resp, out := postAnalyze(t, ts, body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422: %s", body, resp.StatusCode, out)
		}
	}
	resp, out := postAnalyze(t, ts, `{"program":"unary","secret":"x","max_output_bytes":1000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a request raising the output cap: status %d: %s", resp.StatusCode, out)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	svc := newService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
		kind   string
	}{
		{"bad-json", `{`, http.StatusBadRequest, "bad-request"},
		{"bad-base64", `{"program":"unary","secret_b64":"!!"}`, http.StatusBadRequest, "bad-request"},
		{"unknown-program", `{"program":"nope"}`, http.StatusNotFound, "unknown-program"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postAnalyze(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			var out serve.ErrorResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Kind != tc.kind {
				t.Fatalf("kind %q, want %q", out.Kind, tc.kind)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /analyze status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPHealthAndReady(t *testing.T) {
	svc := newService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Workers <= 0 || len(st.Programs) != 1 {
		t.Fatalf("healthz %d %+v", resp.StatusCode, st)
	}

	if resp, err = http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d before drain, want 200", resp.StatusCode)
	}

	svc.StartDrain()
	if resp, err = http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d after StartDrain, want 503", resp.StatusCode)
	}

	resp, body := postAnalyze(t, ts, `{"program":"unary","secret":"x"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analyze while draining: %d %s", resp.StatusCode, body)
	}
	var out serve.ErrorResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "draining" {
		t.Fatalf("kind %q, want draining", out.Kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}
