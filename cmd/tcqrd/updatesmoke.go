package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tcqr/internal/wirefmt"
)

// runUpdateSmoke drives the incremental-update contract against a running
// daemon: factorize, append rows through /v1/update (JSON and binary
// frames), solve against the bare base key (newest epoch) and an explicit
// epoch-pinned key, downdate back to the original shape, and verify the
// error paths and the tcqrd_update_* metric families. Every epoch check is
// relative to the epoch the bare key resolves when the run starts: 0 on a
// fresh daemon, and the epoch the previous run left the series at when the
// daemon was restarted on the same -cache-dir in between — which is how
// scripts/serve_smoke.sh exercises rewarm (a continued series additionally
// requires /statz to report rewarmed entries). The run leaves the series at
// the original matrix, three epochs on, and prints where it found and left it.
func runUpdateSmoke(base string) int {
	s := &smoker{base: base, client: &http.Client{Timeout: 60 * time.Second}}

	var health struct {
		Status string `json:"status"`
	}
	code, err := s.get("/healthz", &health)
	s.check(err == nil && code == 200 && health.Status == "ok",
		"healthz returns 200 ok", "code=%d status=%q err=%v", code, health.Status, err)

	// A shape distinct from -smoke's so the two runs never share cache keys.
	m, n := 120, 24
	mat := smokeMatrix(m, n, 1)
	var fr struct {
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	code, err = s.post("/v1/factorize", map[string]any{"matrix": mat}, &fr)
	s.check(err == nil && code == 200 && fr.Key != "",
		"factorize succeeds with a key", "code=%d key=%q err=%v", code, fr.Key, err)
	baseKey := fr.Key
	epochKey := func(e uint64) string {
		if e == 0 {
			return baseKey
		}
		return baseKey + "@" + strconv.FormatUint(e, 10)
	}

	// Where is the series? The bare key names its newest epoch, and every
	// run leaves it factoring the original matrix.
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j%5) - 2
	}
	b0 := matVec(mat, xTrue)
	var sr struct {
		X   []float64 `json:"x"`
		Key string    `json:"key"`
	}
	var e0 uint64
	code, err = s.post("/v1/solve", map[string]any{"key": baseKey, "b": b0}, &sr)
	if i := strings.LastIndexByte(sr.Key, '@'); i >= 0 {
		e0, _ = strconv.ParseUint(sr.Key[i+1:], 10, 64)
	}
	s.check(err == nil && code == 200 && sr.Key == epochKey(e0) && maxAbsDiff(sr.X, xTrue) < 1e-6,
		"bare-key solve finds the series at the original matrix",
		"code=%d key=%q diff=%g err=%v", code, sr.Key, maxAbsDiff(sr.X, xTrue), err)
	fmt.Printf("update smoke: series found at epoch %d\n", e0)
	if e0 > 0 {
		var st struct {
			Cache struct {
				Rewarmed int64 `json:"rewarmed"`
			} `json:"cache"`
		}
		code, err = s.get("/statz", &st)
		s.check(err == nil && code == 200 && st.Cache.Rewarmed > 0,
			"a continued series was rewarmed from the spill tier",
			"code=%d rewarmed=%d err=%v", code, st.Cache.Rewarmed, err)
	}

	// Append a row block (JSON): the next epoch publishes under key@N.
	blockRows := 8
	block := smokeMatrix(blockRows, n, 1)
	var ur struct {
		Key     string `json:"key"`
		BaseKey string `json:"base_key"`
		Epoch   uint64 `json:"epoch"`
		Rows    int    `json:"rows"`
		Cols    int    `json:"cols"`
	}
	code, err = s.post("/v1/update", map[string]any{"key": baseKey, "append": block}, &ur)
	s.check(err == nil && code == 200 && ur.Epoch == e0+1 && ur.Key == epochKey(e0+1) &&
		ur.BaseKey == baseKey && ur.Rows == m+blockRows && ur.Cols == n,
		"append update publishes the next epoch",
		"code=%d key=%q epoch=%d rows=%d err=%v", code, ur.Key, ur.Epoch, ur.Rows, err)

	// Solving by the bare base key resolves the newest epoch, and the
	// response names the exact epoch it ran against.
	full := stackWire(mat, block)
	b := matVec(full, xTrue)
	code, err = s.post("/v1/solve", map[string]any{"key": baseKey, "b": b}, &sr)
	s.check(err == nil && code == 200 && sr.Key == epochKey(e0+1),
		"bare-key solve resolves the new epoch", "code=%d key=%q err=%v", code, sr.Key, err)
	if code == 200 {
		s.check(maxAbsDiff(sr.X, xTrue) < 1e-6, "post-update solve is accurate",
			"max |x-x*| = %g", maxAbsDiff(sr.X, xTrue))
	}

	// The versioned key pins exactly that epoch.
	code, err = s.post("/v1/solve", map[string]any{"key": epochKey(e0 + 1), "b": b}, &sr)
	s.check(err == nil && code == 200 && sr.Key == epochKey(e0+1) && maxAbsDiff(sr.X, xTrue) < 1e-6,
		"epoch-pinned solve answers from the new epoch",
		"code=%d key=%q diff=%g err=%v", code, sr.Key, maxAbsDiff(sr.X, xTrue), err)

	// A request that carries its own matrix is answered from that matrix,
	// under its own key: the content hash is also the series' bare key, and
	// the series has moved on to the appended matrix.
	code, err = s.post("/v1/solve", map[string]any{"matrix": mat, "b": b0}, &sr)
	s.check(err == nil && code == 200 && sr.Key == baseKey && maxAbsDiff(sr.X, xTrue) < 1e-6,
		"inline solve of the original matrix ignores the newer epoch",
		"code=%d key=%q diff=%g err=%v", code, sr.Key, maxAbsDiff(sr.X, xTrue), err)

	// Binary frame append: [JSON meta, block] publishes the epoch after.
	meta, _ := json.Marshal(map[string]any{"key": baseKey})
	blockData := wireData(block)
	frame, ferr := wirefmt.AppendFrame(nil, wirefmt.JSONSection(meta),
		wirefmt.MatrixSection(blockRows, n, blockData))
	s.check(ferr == nil, "update request encodes as a frame", "err=%v", ferr)
	body, _, code, err := s.postRaw("/v1/update", wirefmt.ContentType, "application/json", frame)
	var ur2 struct {
		Epoch uint64 `json:"epoch"`
		Rows  int    `json:"rows"`
	}
	if err == nil {
		err = json.Unmarshal(body, &ur2)
	}
	s.check(err == nil && code == 200 && ur2.Epoch == e0+2 && ur2.Rows == m+2*blockRows,
		"binary-frame append publishes the epoch after",
		"code=%d epoch=%d rows=%d err=%v", code, ur2.Epoch, ur2.Rows, err)

	// Downdate both appended blocks: the third epoch of this run factors
	// the original matrix again.
	code, err = s.post("/v1/update", map[string]any{"key": baseKey, "remove_rows": 2 * blockRows}, &ur)
	s.check(err == nil && code == 200 && ur.Epoch == e0+3 && ur.Rows == m,
		"downdate publishes the third epoch at the original shape",
		"code=%d epoch=%d rows=%d err=%v", code, ur.Epoch, ur.Rows, err)
	code, err = s.post("/v1/solve", map[string]any{"key": baseKey, "b": b0}, &sr)
	s.check(err == nil && code == 200 && sr.Key == epochKey(e0+3) && maxAbsDiff(sr.X, xTrue) < 1e-6,
		"post-downdate solve matches the original matrix",
		"code=%d key=%q diff=%g err=%v", code, sr.Key, maxAbsDiff(sr.X, xTrue), err)

	// Error contract: unknown key is 404, append+remove together is 400.
	var errBody struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	code, err = s.post("/v1/update", map[string]any{"key": "m0000000000000000-nope", "remove_rows": 1}, &errBody)
	s.check(err == nil && code == 404 && errBody.Error.Code == "unknown_key",
		"update of an unknown key is 404 unknown_key",
		"code=%d code_str=%q err=%v", code, errBody.Error.Code, err)
	code, err = s.post("/v1/update", map[string]any{"key": baseKey, "append": block, "remove_rows": 1}, &errBody)
	s.check(err == nil && code == 400 && errBody.Error.Code == "bad_input",
		"append+remove together is 400 bad_input",
		"code=%d code_str=%q err=%v", code, errBody.Error.Code, err)

	// The update metric families must reflect the three published epochs.
	expo, code, err := s.getText("/metrics")
	s.check(err == nil && code == 200, "metrics endpoint scrapes", "code=%d err=%v", code, err)
	s.check(metricAbove(expo, "tcqrd_update_epochs_total", 2),
		"tcqrd_update_epochs_total counted the epochs", "family missing or <= 2")
	s.check(metricLabelAbove(expo, "tcqrd_update_applied_total", `op="append"`, 1),
		"tcqrd_update_applied_total{op=append} counted both appends", "family missing or <= 1")
	s.check(metricLabelAbove(expo, "tcqrd_update_applied_total", `op="downdate"`, 0),
		"tcqrd_update_applied_total{op=downdate} counted the downdate", "family missing or 0")
	s.check(metricAbove(expo, "tcqrd_update_retired_total", 2),
		"tcqrd_update_retired_total retired the superseded epochs", "family missing or <= 2")

	if s.failed {
		fmt.Println("update smoke: FAILED")
		return 1
	}
	fmt.Printf("update smoke: series left at epoch %d\n", e0+3)
	fmt.Println("update smoke: all checks passed")
	return 0
}

// wireData extracts the column-major payload of a smokeMatrix value.
func wireData(mat map[string]any) []float64 {
	return mat["data"].([]float64)
}

// stackWire stacks two wire matrices with matching column counts.
func stackWire(top, bottom map[string]any) map[string]any {
	mt, mb := top["rows"].(int), bottom["rows"].(int)
	n := top["cols"].(int)
	td, bd := wireData(top), wireData(bottom)
	out := make([]float64, (mt+mb)*n)
	for j := 0; j < n; j++ {
		copy(out[j*(mt+mb):], td[j*mt:(j+1)*mt])
		copy(out[j*(mt+mb)+mt:], bd[j*mb:(j+1)*mb])
	}
	return map[string]any{"rows": mt + mb, "cols": n, "data": out}
}
