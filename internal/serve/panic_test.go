package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/mapper"
	"repro/internal/obs"
	"repro/internal/workload"
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

// TestSearchPanicAnswers500: a panic inside a mapper search — here a
// telemetry callback that panics on one of the search's scoring lanes, a
// goroutine the handler cannot recover — fails that request with 500 and
// releases its admission slot, and the server keeps answering.
func TestSearchPanicAnswers500(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1, Logger: discardLogger()})
	s.mux.Handle("POST /v1/test/searchpanic", s.instrument("search", true, func(w http.ResponseWriter, r *http.Request) {
		l := workload.NewMatMul("p", 32, 64, 64)
		_, _, err := mapper.Best(r.Context(), &l, arch.CaseStudy(), &mapper.Options{
			Spatial: arch.CaseStudySpatial(), BWAware: true, Workers: 4,
			Hooks: &obs.SearchHooks{ImprovedBest: func(float64, int64) { panic("boom") }},
		})
		if err == nil {
			t.Error("search with a panicking hook succeeded")
			return
		}
		writeError(w, s.errorStatus(r, err), err.Error())
	}))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, data := post(t, ts, "/v1/test/searchpanic", "{}")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "panicked") {
		t.Fatalf("search panic = %d %s, want 500 naming the panic", resp.StatusCode, data)
	}
	if n := s.adm.inUse(); n != 0 {
		t.Fatalf("admission slots in use after the panic = %d, want 0", n)
	}
	resp, data = post(t, ts, "/v1/search", smallSearch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after a search panic = %d, want 200 (%s)", resp.StatusCode, data)
	}
	if _, mdata := get(t, ts, "/metrics"); !strings.Contains(string(mdata), "servemodel_panics_total 1") {
		t.Error("metrics do not count the search panic")
	}
}
