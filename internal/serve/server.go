// Package serve exposes the latency model as a long-running HTTP service:
// single-layer evaluation of a fixed mapping, full mapping searches
// (exhaustive or annealed) and whole-network evaluation, all backed by the
// process-wide memo cache so identical requests coalesce onto one in-flight
// search and repeats are served from memory (or disk, when the store is
// enabled).
//
// The server is built for the concurrency semantics PR 4 threaded through
// the model: every request gets a context bounded by its own deadline, the
// client connection and the server's drain state; a canceled search stops
// the mapper cooperatively, returns promptly and never poisons the cache
// with a partial result. An admission controller bounds concurrent searches
// against the shared worker budget and sheds overload with 429 +
// Retry-After. Observability is built in: /metrics (Prometheus text
// format, hand-rolled — this repository takes no dependencies), /healthz,
// structured request logs (log/slog) and graceful shutdown that drains
// in-flight searches under a deadline before force-canceling the rest.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/otrace"
	"repro/internal/par"
	"repro/internal/prof"
)

// tenantOf extracts the request's tenant for weighted-fair admission: the
// X-Tenant header, truncated to 64 bytes, defaulting to "default".
func tenantOf(r *http.Request) string {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		return defaultTenant
	}
	if len(t) > 64 {
		t = t[:64]
	}
	return t
}

// statusClientGone is logged for requests whose client disconnected before a
// response could be written (nginx's convention; never actually sent).
const statusClientGone = 499

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// MaxConcurrent bounds concurrently running searches (default: the
	// shared worker budget, par.Limit()).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a search slot before the server
	// sheds with 429 (default: 4 x MaxConcurrent; negative: no queue, shed
	// as soon as the slots are busy).
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 5m).
	MaxTimeout time.Duration
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger
	// TenantWeights gives named tenants (X-Tenant header) proportional
	// shares of the admission queue: a weight-3 tenant's queued searches are
	// granted slots 3x as often as a weight-1 tenant's. Unlisted tenants
	// (including "default") weigh 1. Empty: plain FIFO (every tenant weighs
	// the same).
	TenantWeights map[string]float64
	// Peers lists other servemodel base URLs eligible to execute shards of
	// this server's sharded searches (POST /v1/search with shards > 1).
	// Never list THIS server's own address: a node executing its own fan-out
	// would queue shard requests behind the coordinating search's admission
	// slot and can deadlock against itself. Empty: shards run in-process.
	Peers []string
	// MemoStore backs the /v1/memo/{get,put} endpoints, letting a fleet
	// share warm search results (default: a bounded in-process store). This
	// is the store this node SERVES; the store the node's own searches read
	// and write is installed process-wide via mapper.SetBlobStore.
	MemoStore memo.Store
	// MemoVersion tags the memo wire protocol; exchanges with a different
	// version are answered as misses / dropped so nodes running different
	// model arithmetic never mix results (default mapper.DiskVersion()).
	MemoVersion int
	// ShardDelay holds every POST /v1/shard walk open for this long after
	// its steal handle is registered, before the walk starts. Test hook
	// only (-shardslowdown): it gives an integration or smoke test a
	// deterministic window to land a /v1/shard/steal against this node.
	ShardDelay time.Duration
	// NodeName labels this node's spans in assembled fleet traces (one
	// Perfetto process row per node; default "servemodel").
	NodeName string
	// Trace records this node's spans, exported per-trace at
	// GET /v1/trace/{id} (default: a bounded recorder, otrace defaults).
	Trace *otrace.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = par.Limit()
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 4 * c.MaxConcurrent
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.MemoStore == nil {
		c.MemoStore = memo.NewMem(0)
	}
	// The served store always traces and counts per-tier stats; WithTrace is
	// idempotent, so a caller passing an already-wrapped store is fine.
	c.MemoStore = memo.WithTrace(c.MemoStore)
	if c.MemoVersion == 0 {
		c.MemoVersion = mapper.DiskVersion()
	}
	if c.NodeName == "" {
		c.NodeName = "servemodel"
	}
	if c.Trace == nil {
		c.Trace = otrace.NewRecorder(c.NodeName, 0, 0)
	}
	return c
}

// Server is the HTTP service. Create with New, expose via Handler, stop
// with Shutdown.
type Server struct {
	cfg Config
	log *slog.Logger
	mux *http.ServeMux
	adm *admission
	met *metrics
	// progress tracks live search telemetry, keyed by search_id.
	progress *progressRegistry
	// steals tracks in-flight shard walks by sid for /v1/shard/steal.
	steals *stealRegistry
	// flight is the bounded ring of finished-request summaries
	// (/v1/debug/requests) and the X-Request-Id generator.
	flight *flightRing

	// base is alive for the server's whole lifetime and canceled only when
	// a graceful shutdown exhausts its drain deadline; every request context
	// is joined to it, so force-cancel reaches all in-flight searches.
	base       context.Context
	baseCancel context.CancelFunc
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		mux:      http.NewServeMux(),
		adm:      newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.TenantWeights),
		met:      newMetrics(time.Now(), "eval", "search", "network", "metrics", "healthz", "explain", "progress", "shard", "shard_steal", "memo_get", "memo_put", "trace", "debug_requests"),
		progress: newProgressRegistry(),
		steals:   newStealRegistry(),
		flight:   newFlightRing(flightRingSize),
	}
	s.base, s.baseCancel = context.WithCancel(context.Background())
	s.mux.Handle("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	s.mux.Handle("POST /v1/eval", s.instrument("eval", true, s.handleEval))
	s.mux.Handle("POST /v1/search", s.instrument("search", true, s.handleSearch))
	s.mux.Handle("GET /v1/search/{id}/progress", s.instrument("progress", false, s.handleProgress))
	s.mux.Handle("POST /v1/explain", s.instrument("explain", true, s.handleExplain))
	s.mux.Handle("POST /v1/network", s.instrument("network", true, s.handleNetwork))
	s.mux.Handle("POST /v1/shard", s.instrument("shard", true, s.handleShard))
	// The steal endpoint bypasses admission: it must reach a node whose
	// slots are all busy walking — that is exactly when stealing matters.
	s.mux.Handle("POST /v1/shard/steal", s.instrument("shard_steal", false, s.handleShardSteal))
	s.mux.Handle("POST /v1/memo/get", s.instrument("memo_get", false, s.handleMemoGet))
	s.mux.Handle("POST /v1/memo/put", s.instrument("memo_put", false, s.handleMemoPut))
	s.mux.Handle("GET /v1/trace/{id}", s.instrument("trace", false, s.handleTrace))
	s.mux.Handle("GET /v1/debug/requests", s.instrument("debug_requests", false, s.handleDebugRequests))
	return s
}

// Handler returns the root handler (mount on an http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// statusWriter records the status code a handler wrote, and whether it
// wrote anything at all.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// handlerPanic is a recovered handler panic: the value and the stack of
// the panicking goroutine.
type handlerPanic struct {
	val   any
	stack []byte
}

// serveRecovered runs h and returns the panic it raised, if any, so the
// middleware can release the admission slot and record the request on
// every path.
func serveRecovered(h http.HandlerFunc, w http.ResponseWriter, r *http.Request) (hp *handlerPanic) {
	defer func() {
		if v := recover(); v != nil {
			hp = &handlerPanic{val: v, stack: debug.Stack()}
		}
	}()
	h(w, r)
	return nil
}

// instrument wraps a handler with the middleware stack: in-flight gauge,
// trace join/start, admission control (when admit), latency/status metrics,
// the request log line and the flight-recorder entry. The request id is
// minted here and echoed as X-Request-Id so a client can quote the exact
// server-side log lines and flight entry for any response it holds. A
// handler panic is recovered: the slot is released and the request recorded
// as usual, and the client gets a 500 carrying the trace id.
func (s *Server) instrument(name string, admit bool, h http.HandlerFunc) http.Handler {
	em := s.met.endpoint(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		em.inflight.Add(1)
		defer em.inflight.Add(-1)
		tenant := tenantOf(r)
		reqID := s.flight.nextID()
		w.Header().Set("X-Request-Id", reqID)

		// A propagated traceparent joins the caller's trace on ANY endpoint,
		// so a coordinator's shard walks, steals and memo exchanges land in
		// its trace; an admitted request without one roots a fresh trace of
		// its own. Plumbing endpoints (metrics, healthz, trace export) never
		// mint traces — they would flood the bounded recorder.
		ctx := r.Context()
		var span *otrace.Span
		if tr, parent, ok := otrace.Extract(r.Header); ok {
			ctx, span = s.cfg.Trace.JoinTrace(ctx, tr, parent, "serve."+name, "serve")
		} else if admit {
			ctx, span = s.cfg.Trace.StartTrace(ctx, "serve."+name, "serve")
		}
		span.SetAttr("endpoint", name)
		span.SetAttr("tenant", tenant)
		span.SetAttr("request_id", reqID)
		note := &reqNote{}
		r = r.WithContext(withReqNote(ctx, note))

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		var hp *handlerPanic
		switch {
		case !admit:
			hp = serveRecovered(h, sw, r)
		default:
			at0 := time.Now()
			release, err := s.adm.acquire(r.Context(), tenant)
			switch {
			case errors.Is(err, errAdmissionFull):
				s.met.shed.Add(1)
				sw.Header().Set("Retry-After", "1")
				writeError(sw, http.StatusTooManyRequests, "server saturated: all search slots and the wait queue are full")
			case err != nil:
				sw.code = statusClientGone // client gave up while queued
			default:
				otrace.RecordSpan(r.Context(), "admission.wait", otrace.CatQueue, "",
					at0, time.Since(at0), otrace.Attr{K: "tenant", V: tenant})
				hp = serveRecovered(h, sw, r)
				release()
			}
		}
		traceID := otrace.IDString(r.Context())
		if hp != nil {
			s.met.panics.Add(1)
			s.log.LogAttrs(r.Context(), slog.LevelError, "handler panic",
				slog.String("endpoint", name),
				slog.Any("panic", hp.val),
				slog.String("trace_id", traceID),
				slog.String("request_id", reqID),
				slog.String("stack", string(hp.stack)),
			)
			span.SetAttr("panic", "true")
			if sw.wrote {
				sw.code = http.StatusInternalServerError // the reply is already partly sent
			} else {
				writeJSON(sw, http.StatusInternalServerError, errorBody{Error: "internal server error", TraceID: traceID})
			}
		}
		span.End()
		d := time.Since(t0)
		em.done(sw.code, d.Seconds())
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("endpoint", name),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("code", sw.code),
			slog.Duration("dur", d),
			slog.String("remote", r.RemoteAddr),
			slog.String("trace_id", traceID),
			slog.String("tenant", tenant),
			slog.String("request_id", reqID),
		)
		s.flight.add(flightEntry{
			Time:      t0.UTC().Format(time.RFC3339Nano),
			Endpoint:  name,
			Method:    r.Method,
			Path:      r.URL.Path,
			Tenant:    tenant,
			TraceID:   traceID,
			RequestID: reqID,
			Code:      sw.code,
			DurMS:     float64(d.Microseconds()) / 1e3,
			Shards:    note.shards.Load(),
			Steals:    note.steals.Load(),
		})
	})
}

// healthBody is the /healthz response: liveness plus build identity.
type healthBody struct {
	Status string `json:"status"`
	prof.BuildInfo
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthBody{Status: "ok", BuildInfo: prof.Build()}
	if s.base.Err() != nil {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cnt := memo.Default.Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, memoSnapshot{
		Hits:      cnt.Hits(),
		Misses:    cnt.Misses(),
		Waits:     cnt.InflightWaits(),
		DiskHits:  cnt.DiskHits(),
		Canceled:  cnt.Canceled(),
		Transient: cnt.Transient(),
	}, admissionSnapshot{
		InUse:  s.adm.inUse(),
		Queued: s.adm.queueDepth(),
		Slots:  s.adm.capacity(),
		Queue:  s.adm.maxQueue,
	}, s.progress.live(), storeTierStats())
}

// storeTierStats converts the memo package's per-tier registry into the
// renderer's memo-free carrier type.
func storeTierStats() []storeTierStat {
	snaps := memo.TierSnapshots()
	out := make([]storeTierStat, len(snaps))
	for i, sn := range snaps {
		out[i] = storeTierStat{
			Tier:     sn.Tier,
			Op:       sn.Op,
			Outcomes: sn.Outcomes,
			Bounds:   memo.StatsBuckets,
			Buckets:  sn.Buckets,
			Sum:      sn.Sum,
			Count:    sn.Count,
		}
	}
	return out
}

// requestContext derives the context a search runs under: bounded by the
// request's timeout (timeout_ms capped at MaxTimeout; DefaultTimeout when
// absent), canceled when the client disconnects (via r.Context()), and
// force-canceled when a graceful shutdown exhausts its drain deadline (via
// the server's base context). The returned stop func releases both.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.base, cancel)
	return ctx, func() { stop(); cancel() }
}

// errorStatus maps a failed search to an HTTP status: a panic recovered
// inside the search is 500 (counted in servemodel_panics_total and logged
// with its stack, like a handler panic), the request deadline expiring is
// 504, a shutdown force-cancel is 503, a vanished client is the unsendable
// 499 (metrics/logs only), and anything else — a well-formed request whose
// search legitimately found nothing — is 422.
func (s *Server) errorStatus(r *http.Request, err error) int {
	var pe *mapper.PanicError
	switch {
	case errors.As(err, &pe):
		s.met.panics.Add(1)
		s.log.LogAttrs(r.Context(), slog.LevelError, "search panic",
			slog.Any("panic", pe.Value),
			slog.String("trace_id", otrace.IDString(r.Context())),
			slog.String("stack", string(pe.Stack)),
		)
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case s.base.Err() != nil:
		return http.StatusServiceUnavailable
	case r.Context().Err() != nil:
		return statusClientGone
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// Shutdown stops srv gracefully: new connections are refused, in-flight
// requests get the drain window to finish, and if any are still running
// when it expires their contexts are force-canceled (they answer 503) and
// a short grace period lets those responses flush before the remaining
// connections are closed.
func (s *Server) Shutdown(srv *http.Server, drain time.Duration) error {
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err == nil {
		return nil
	}
	s.log.Warn("drain deadline expired; force-canceling in-flight searches")
	s.baseCancel()
	gctx, gcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer gcancel()
	return srv.Shutdown(gctx)
}

// writeJSON writes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the JSON shape of every error response.
type errorBody struct {
	Error string `json:"error"`
	// TraceID is set on the 500 answering a recovered handler panic, so
	// the failure can be found in /v1/trace and the server log.
	TraceID string `json:"trace_id,omitempty"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}
