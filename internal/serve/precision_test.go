package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/lang"
	"flowcheck/internal/serve"
)

// gateSrc reads 2 bytes of its secret, so its static bound (16 bits)
// separates from the trivial bound on any larger secret.
const gateSrc = `
int main() {
    char buf[2];
    read_secret(buf, 2);
    putc(buf[0] ^ buf[1]);
    return 0;
}
`

func newGateService(t *testing.T, opts serve.Options) *serve.Service {
	t.Helper()
	prog, err := lang.Compile("gate.mc", gateSrc)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.New(opts)
	svc.Register("gate", prog, engine.Config{})
	return svc
}

// A static-precision request answers the static bound with no execution
// and lands in the rung counters; the program's configured full solve is
// untouched for other requests.
func TestPrecisionRungRequest(t *testing.T) {
	svc := newGateService(t, serve.Options{})
	resp, err := svc.Analyze(context.Background(), serve.Request{
		Program:   "gate",
		Inputs:    engine.Inputs{Secret: make([]byte, 64)},
		Precision: "static",
	})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Result
	if res.Bits != 16 || res.Rung != engine.RungStatic {
		t.Fatalf("static request: bits=%d rung=%q, want 16/static", res.Bits, res.Rung)
	}
	if res.Graph != nil || res.Steps != 0 {
		t.Fatalf("static request executed: steps=%d", res.Steps)
	}

	full, err := svc.Analyze(context.Background(), serve.Request{
		Program: "gate",
		Inputs:  engine.Inputs{Secret: []byte("ab")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Result.Rung != engine.RungFull {
		t.Fatalf("plain request rung = %q, want full", full.Result.Rung)
	}

	st := svc.Stats()
	if st.RungStatic != 1 || st.RungFull != 1 || st.RungTrivial != 0 {
		t.Fatalf("rung counters = trivial %d / static %d / full %d, want 0/1/1",
			st.RungTrivial, st.RungStatic, st.RungFull)
	}
}

// A bogus precision name is a typed bad request, refused before admission
// and before any ledger charge.
func TestPrecisionBadRequest(t *testing.T) {
	svc := newGateService(t, serve.Options{})
	_, err := svc.Analyze(context.Background(), serve.Request{
		Program:   "gate",
		Inputs:    engine.Inputs{Secret: []byte("ab")},
		Precision: "bogus",
	})
	if !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("got %v, want ErrBadRequest", err)
	}
	if st := svc.Stats(); st.Admitted != 0 {
		t.Fatalf("bad request was admitted: %+v", st)
	}
}

// Rung answers report Degraded (no cut exists) but must not trigger the
// degraded-retry loop: there is no larger budget that un-degrades them.
func TestPrecisionRungNotRetried(t *testing.T) {
	svc := newGateService(t, serve.Options{RetryDegraded: true})
	resp, err := svc.Analyze(context.Background(), serve.Request{
		Program:   "gate",
		Inputs:    engine.Inputs{Secret: []byte("ab")},
		Precision: "trivial",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts != 1 {
		t.Fatalf("rung answer retried: attempts = %d, want 1", resp.Attempts)
	}
	if !resp.Result.Degraded || resp.Result.Rung != engine.RungTrivial {
		t.Fatalf("rung answer: %+v", resp.Result)
	}
}

// The HTTP surface threads precision through: rung in the body and the
// X-Flow-Rung header, adaptive_threshold honored, rungs in /statz, and a
// bad precision mapped to 400.
func TestHTTPPrecision(t *testing.T) {
	svc := newGateService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := postAnalyze(t, ts,
		`{"program":"gate","secret":"abcdefgh","precision":"static"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Bits != 16 || out.Rung != engine.RungStatic || !out.Degraded {
		t.Fatalf("static over HTTP: %+v, want 16 bits / static rung / degraded", out)
	}
	if got := resp.Header.Get("X-Flow-Rung"); got != engine.RungStatic {
		t.Fatalf("X-Flow-Rung = %q, want static", got)
	}

	// Adaptive with a generous threshold stops at the trivial rung.
	resp, body = postAnalyze(t, ts,
		`{"program":"gate","secret":"ab","precision":"adaptive","adaptive_threshold":100}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rung != engine.RungTrivial || out.Bits != 16 {
		t.Fatalf("adaptive over HTTP: %+v, want trivial rung at 16 bits", out)
	}

	resp, body = postAnalyze(t, ts, `{"program":"gate","secret":"ab","precision":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad precision status %d: %s", resp.StatusCode, body)
	}
	var eresp serve.ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Kind != "bad-request" {
		t.Fatalf("bad precision kind %q", eresp.Kind)
	}

	statz, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer statz.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(statz.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var rungs map[string]int64
	if err := json.Unmarshal(raw["rungs"], &rungs); err != nil {
		t.Fatalf("statz rungs: %v (%s)", err, raw["rungs"])
	}
	if rungs["static"] != 1 || rungs["trivial"] != 1 {
		t.Fatalf("statz rungs = %v, want static 1 / trivial 1", rungs)
	}
}
