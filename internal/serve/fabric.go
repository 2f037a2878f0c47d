package serve

// The fleet endpoints. POST /v1/shard executes one planned shard of a
// sharded Best search on behalf of a remote coordinator (internal/fabric);
// the request carries the exact normalized options plus the shard's prefix
// range and walk-state handoff, so the outcome merges bit-identically into
// the coordinator's result no matter which node ran it (DESIGN.md §13).
// POST /v1/memo/{get,put} serve the configured memo.Store to memo.Remote
// clients, letting a fleet share warm whole-search results; both sides are
// version-tagged so nodes running different model arithmetic read each other
// as misses instead of mixing results.

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/otrace"
)

// stealRegistry indexes the live ShardControls of in-flight shard requests
// by their coordinator-chosen sid, so POST /v1/shard/steal can reach into a
// running walk. Entries live exactly as long as the walk.
//
// A steal can overtake its victim: the coordinator may POST it while the
// shard request is still being decoded here. A steal naming an unknown sid
// is therefore remembered (in a small FIFO-bounded set), and a shard that
// registers under a remembered sid truncates at its entry position at once:
// its whole range comes back as the Resume remainder for the idle
// executors. A remembered sid that never registers (its shard already
// finished, or ran elsewhere) just ages out.
type stealRegistry struct {
	mu     sync.Mutex
	byID   map[string]*mapper.ShardControl
	early  map[string]struct{}
	earlyQ []string // early's sids, oldest first
}

// maxEarlySteals bounds the remembered steals. Each in-flight coordinator
// executor has at most one outstanding steal, so a few dozen cover any
// realistic fleet; overflow evicts the oldest, whose shard then simply
// runs whole.
const maxEarlySteals = 64

func newStealRegistry() *stealRegistry {
	return &stealRegistry{byID: map[string]*mapper.ShardControl{}, early: map[string]struct{}{}}
}

// add registers a shard's control, truncating it at once when a steal for
// its sid arrived first.
func (sr *stealRegistry) add(sid string, ctl *mapper.ShardControl) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.byID[sid] = ctl
	if _, ok := sr.early[sid]; ok {
		delete(sr.early, sid)
		ctl.Truncate(ctl.Frontier())
	}
}

func (sr *stealRegistry) remove(sid string) {
	sr.mu.Lock()
	delete(sr.byID, sid)
	sr.mu.Unlock()
}

// steal stops the shard registered under sid at its published frontier, or
// remembers the steal for a shard that has not registered yet. It reports
// whether a live shard was reached.
func (sr *stealRegistry) steal(sid string) bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if ctl, ok := sr.byID[sid]; ok {
		ctl.Truncate(ctl.Frontier())
		return true
	}
	if _, ok := sr.early[sid]; ok {
		return false
	}
	if len(sr.earlyQ) == maxEarlySteals {
		delete(sr.early, sr.earlyQ[0])
		sr.earlyQ = sr.earlyQ[1:]
	}
	sr.early[sid] = struct{}{}
	sr.earlyQ = append(sr.earlyQ, sid)
	return false
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req fabric.ShardRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	l, err := req.Layer.ToLayer()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec := archSpec{Arch: req.Arch, ArchConfig: req.ArchConfig, Spatial: req.Spatial}
	hw, sp, err := spec.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	o := req.SearchOptions(sp, obj)
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	ctl := mapper.NewShardControl(req.Shard)
	if req.Sid != "" {
		s.steals.add(req.Sid, ctl)
		defer s.steals.remove(req.Sid)
	}
	if d := s.cfg.ShardDelay; d > 0 {
		// Test hook: hold the walk open so an integration or smoke test can
		// land a steal deterministically. Bounded by the request context.
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	// The walk span's duration is what the coordinator's critical-path
	// attribution charges to "walk" inside this shard's RPC window; the
	// position attrs tie it back to the plan range it covered.
	wctx, wsp := otrace.StartSpanKeyed(ctx, "shard.walk", otrace.CatWalk,
		fmt.Sprintf("%d", req.Shard.WalkedBefore))
	wsp.SetAttr("pos_lo", fmt.Sprintf("%d", req.Shard.WalkedBefore))
	out, err := mapper.BestShardControlled(wctx, &l, hw, &o, req.Shard, ctl)
	if err != nil {
		wsp.SetAttr("outcome", "error")
		wsp.End()
		writeError(w, s.errorStatus(r, err), err.Error())
		return
	}
	if out.Truncated {
		wsp.SetAttr("truncated", "true")
		wsp.SetAttr("pos_done", fmt.Sprintf("%d", out.Resume.WalkedBefore))
	}
	wsp.End()
	s.met.fabricShards.Add(1)
	noteFrom(r.Context()).addShards(1)
	if out.Truncated {
		s.met.fabricSteals.Add(1)
		noteFrom(r.Context()).addSteals(1)
	}
	writeJSON(w, http.StatusOK, fabric.EncodeOutcome(out))
}

// handleShardSteal stops the in-flight shard registered under the given sid
// at its exact walk frontier, or — when that shard has not registered yet —
// at its entry position once it does. 202 either way; the stolen remainder
// comes back to the coordinator in the original shard request's response.
func (s *Server) handleShardSteal(w http.ResponseWriter, r *http.Request) {
	var req fabric.StealRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Sid == "" {
		writeError(w, http.StatusBadRequest, "steal request names no sid")
		return
	}
	status := "pending"
	if s.steals.steal(req.Sid) {
		status = "stopping"
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": status})
}

func (s *Server) handleMemoGet(w http.ResponseWriter, r *http.Request) {
	var req memo.WireGet
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Version != s.cfg.MemoVersion || len(req.Enc) == 0 {
		writeError(w, http.StatusNotFound, "memo miss (version or key)")
		return
	}
	blob, ok := s.cfg.MemoStore.Get(r.Context(), memo.KeyOf(req.Enc))
	if !ok || len(blob) == 0 {
		writeError(w, http.StatusNotFound, "memo miss")
		return
	}
	writeJSON(w, http.StatusOK, memo.WireBlob{Blob: blob})
}

func (s *Server) handleMemoPut(w http.ResponseWriter, r *http.Request) {
	var req memo.WirePut
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Version skew and empty payloads are silently dropped, not errors: the
	// store contract is best-effort, and a mixed-version fleet is a supported
	// (if transient) state during rollouts.
	if req.Version == s.cfg.MemoVersion && len(req.Enc) > 0 && len(req.Blob) > 0 {
		s.cfg.MemoStore.Put(r.Context(), memo.KeyOf(req.Enc), req.Blob)
	}
	w.WriteHeader(http.StatusNoContent)
}
