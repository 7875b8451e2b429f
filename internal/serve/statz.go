package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// statzTiming is the aggregated view of one pipeline stage.
type statzTiming struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	AvgMS   float64 `json:"avg_ms"`
	MaxMS   float64 `json:"max_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// statzResponse is the body of GET /statz.
type statzResponse struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Draining      bool                   `json:"draining"`
	Requests      map[string]int64       `json:"requests"`
	Errors        map[string]int64       `json:"errors"`
	Cache         CacheStats             `json:"cache"`
	Spill         SpillStats             `json:"spill"`
	Pool          PoolStats              `json:"pool"`
	Timing        map[string]statzTiming `json:"timing"`
	Hazards       map[string]int64       `json:"hazards"`
}

// handleStatz renders the JSON stats view. Since the metrics registry became
// the single source of truth, this is a thin projection of registry
// snapshots — every map is a private copy, so encoding can never interleave
// with writers.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	resp := statzResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Requests:      s.metrics.requests.Snapshot(),
		Errors:        s.metrics.errors.Snapshot(),
		Hazards:       s.metrics.hazards.Snapshot(),
		Timing:        make(map[string]statzTiming),
	}
	for stage, h := range s.metrics.stageSeconds.Series() {
		n := h.Count()
		if n == 0 {
			continue
		}
		sum := h.Sum()
		resp.Timing[stage] = statzTiming{
			Count:   n,
			TotalMS: sum * 1e3,
			AvgMS:   sum / float64(n) * 1e3,
			MaxMS:   h.Max() * 1e3,
			P50MS:   h.Quantile(0.50) * 1e3,
			P95MS:   h.Quantile(0.95) * 1e3,
			P99MS:   h.Quantile(0.99) * 1e3,
		}
	}
	resp.Cache = s.cache.Stats()
	if s.spill != nil {
		resp.Spill = s.spill.Stats()
	}
	resp.Pool = s.pool.Stats()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
