package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerPanicReleasesSlot: with a single admission slot and no queue, a
// panicking admitted request answers 500 with its trace id, is counted in
// servemodel_panics_total and the flight recorder, and leaves the slot free —
// the next search gets 200, not 429.
func TestHandlerPanicReleasesSlot(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1, Logger: discardLogger()})
	s.mux.Handle("POST /v1/test/panic", s.instrument("eval", true, func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, data := post(t, ts, "/v1/test/panic", "{}")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500 (%s)", resp.StatusCode, data)
	}
	var body errorBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("500 body %q: %v", data, err)
	}
	if body.TraceID == "" || body.Error == "" {
		t.Fatalf("500 body %+v lacks error or trace_id", body)
	}
	if n := s.adm.inUse(); n != 0 {
		t.Fatalf("admission slots in use after the panic = %d, want 0", n)
	}

	resp, data = post(t, ts, "/v1/search", smallSearch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after a panic = %d, want 200 (%s)", resp.StatusCode, data)
	}

	_, mdata := get(t, ts, "/metrics")
	for _, want := range []string{
		"servemodel_panics_total 1",
		`servemodel_requests_total{endpoint="eval",code="500"} 1`,
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	_, fdata := get(t, ts, "/v1/debug/requests")
	if !strings.Contains(string(fdata), body.TraceID) {
		t.Errorf("flight recorder has no entry with trace id %s:\n%s", body.TraceID, fdata)
	}
}
