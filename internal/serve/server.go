package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"github.com/pmemgo/xfdetector/internal/ckpt"
)

// ErrLeaseGone reports a lease the daemon no longer recognizes: expired
// (and its shard rescheduled) or never granted. Workers must tear down
// the shard child on it — the daemon has moved on.
var ErrLeaseGone = errors.New("lease expired or unknown")

// Buckets is the merged per-failure-point accounting exposed by /status —
// the same disjoint buckets core.Result carries, summed from the shard
// summaries (never fabricated from the covered-point count). CrossShard
// is always zero and only the benchmark module still reads it.
type Buckets struct {
	PostRuns   int `json:"post_runs"`
	Pruned     int `json:"pruned"`
	CrossShard int `json:"cross_shard"`
	CacheHits  int `json:"cache_hits"`
	Resumed    int `json:"resumed"`
	Skipped    int `json:"skipped"`
	OtherShard int `json:"other_shard"`
	Abandoned  int `json:"abandoned"`
}

// ShardStatus is one shard's scheduling state.
type ShardStatus struct {
	Index    int    `json:"index"`
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts"`
	Resume   bool   `json:"resume"`
	Lines    int    `json:"lines"`
	ExitCode int    `json:"exit_code"`
	GaveUp   bool   `json:"gave_up,omitempty"`
}

// CampaignStatus is the live view of one campaign: coverage, deduplicated
// report count, and degradation buckets while running; plus the merged
// result text, sorted report keys, and exit code once done.
type CampaignStatus struct {
	ID      string  `json:"id"`
	State   string  `json:"state"`
	Failure string  `json:"failure,omitempty"`
	Shards  int     `json:"shards"`
	Covered int     `json:"covered"`
	Total   int     `json:"total"` // -1 until a shard completes
	Reports int     `json:"reports"`
	Buckets Buckets `json:"buckets"`
	// CrashStateClasses and CacheHits are the merged shard summaries'
	// tested classes and verdict-cache hits: zero until a shard completes.
	// Shards own disjoint classes, so the class sum is the campaign's.
	CrashStateClasses int    `json:"crash_state_classes"`
	CacheHits         int    `json:"cache_hits"`
	Clean             bool   `json:"clean"`
	Incomplete        bool   `json:"incomplete"`
	IncompleteReason  string `json:"incomplete_reason,omitempty"`
	FailurePoints     int    `json:"failure_points"`
	// ExitCode follows the CLI contract (0 clean, 1 bugs, 2 failed,
	// 3 incomplete); -1 while the campaign is still running.
	ExitCode    int           `json:"exit_code"`
	ResultText  string        `json:"result_text,omitempty"`
	Keys        []string      `json:"keys,omitempty"`
	ShardStates []ShardStatus `json:"shard_states"`
}

// statusLocked snapshots one campaign. The merger is consulted live, so a
// running campaign reports real coverage and buckets, not placeholders.
func (s *Server) statusLocked(c *campaign) CampaignStatus {
	res := c.result
	if res == nil {
		res = c.merger.Result("live")
	}
	st := CampaignStatus{
		ID:      c.id,
		State:   c.state,
		Failure: c.failure,
		Shards:  c.spec.Shards,
		Covered: c.merger.Covered(),
		Total:   c.merger.Total(),
		Reports: len(c.merger.Reports()),
		Buckets: Buckets{
			PostRuns:   res.PostRuns,
			Pruned:     res.PrunedFailurePoints,
			CacheHits:  res.CacheHitFailurePoints,
			Resumed:    res.ResumedFailurePoints,
			Skipped:    res.SkippedFailurePoints,
			OtherShard: res.OtherShardFailurePoints,
			Abandoned:  res.AbandonedPostRuns,
		},
		CrashStateClasses: res.CrashStateClasses,
		CacheHits:         res.CacheHitFailurePoints,
		Clean:             res.Clean(),
		Incomplete:        res.Incomplete,
		IncompleteReason:  res.IncompleteReason,
		FailurePoints:     res.FailurePoints,
		ExitCode:          -1,
	}
	for _, sh := range c.shards {
		st.ShardStates = append(st.ShardStates, ShardStatus{
			Index: sh.index, State: sh.state, Worker: sh.worker,
			Attempts: sh.attempts, Resume: sh.resume, Lines: sh.lines,
			ExitCode: sh.exitCode, GaveUp: sh.gaveUp,
		})
	}
	switch {
	case c.state == campaignFailed:
		st.ExitCode = 2
	case c.state == campaignDone:
		st.ResultText = res.String()
		st.Keys = ckpt.SortedKeys(res.Reports)
		switch {
		case res.Incomplete:
			st.ExitCode = 3
		case !res.Clean():
			st.ExitCode = 1
		default:
			st.ExitCode = 0
		}
	}
	return st
}

// Status snapshots every campaign in submission order.
func (s *Server) Status() []CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	out := make([]CampaignStatus, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, s.statusLocked(c))
	}
	return out
}

// CampaignStatus snapshots one campaign by ID.
func (s *Server) CampaignStatus(id string) (CampaignStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	c, ok := s.byID[id]
	if !ok {
		return CampaignStatus{}, fmt.Errorf("unknown campaign %q", id)
	}
	return s.statusLocked(c), nil
}

// Handler mounts the HTTP/JSON API:
//
//	POST /campaigns              {"args":[...],"shards":N} -> {"id":"c1"}
//	GET  /status                 -> {"campaigns":[...]}
//	GET  /campaigns/{id}         -> CampaignStatus
//	POST /lease                  {"worker":"w1","caps":["file-backed"]} -> LeaseGrant | 204
//	POST /leases/{id}/lines      raw JSONL chunk -> 200 | 409 lease gone
//	POST /leases/{id}/heartbeat  -> 200 | 409
//	GET  /leases/{id}/artifact   -> raw XFDR bytes | 404 none | 409
//	GET  /leases/{id}/verdicts   -> {"<fpr>":[reports...],...} | 409
//	POST /leases/{id}/done       {"code":0,"released":false} -> 200 | 409
//	GET  /healthz                -> 200
//
// A shard child fetches its campaign's cached verdicts once, when it
// starts; the cache grows from the per-point lines arriving on /lines
// (AppendLines).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})

	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec CampaignSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]string{"id": id})
	})

	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"campaigns": s.Status()})
	})

	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.CampaignStatus(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})

	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Worker string   `json:"worker"`
			Caps   []string `json:"caps"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		grant, err := s.Acquire(req.Worker, req.Caps...)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if grant == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, grant)
	})

	mux.HandleFunc("POST /leases/{id}/lines", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		leaseErr(w, s.AppendLines(r.PathValue("id"), data))
	})

	mux.HandleFunc("POST /leases/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		leaseErr(w, s.Heartbeat(r.PathValue("id")))
	})

	// Raw-bytes artifact download for replaying shards; the fetch
	// doubles as a heartbeat (ArtifactPath validates and renews the lease).
	mux.HandleFunc("GET /leases/{id}/artifact", func(w http.ResponseWriter, r *http.Request) {
		path, err := s.ArtifactPath(r.PathValue("id"))
		if err != nil {
			leaseErr(w, err)
			return
		}
		if path == "" {
			http.Error(w, "campaign has no recorded artifact", http.StatusNotFound)
			return
		}
		f, err := os.Open(path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, f)
	})

	mux.HandleFunc("GET /leases/{id}/verdicts", func(w http.ResponseWriter, r *http.Request) {
		cached, err := s.CachedVerdicts(r.PathValue("id"))
		if err != nil {
			leaseErr(w, err)
			return
		}
		writeJSON(w, cached)
	})

	mux.HandleFunc("POST /leases/{id}/done", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Code     int  `json:"code"`
			Released bool `json:"released"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		leaseErr(w, s.Finish(r.PathValue("id"), req.Code, req.Released))
	})

	return mux
}

func leaseErr(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		w.WriteHeader(http.StatusOK)
	case errors.Is(err, ErrLeaseGone):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
