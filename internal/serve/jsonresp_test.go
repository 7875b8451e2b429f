package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"tcqr/internal/wirefmt"
)

// TestJSONResponseBytesUnchanged: a JSON response encoded into a pooled
// buffer (encodeJSON, what reqScope.ok sends) is byte for byte what
// json.NewEncoder writes into a fresh bytes.Buffer, for every response type,
// with values that exercise the number formats and HTML escaping, and after
// the pooled buffer has held a longer document. A value json cannot encode
// fails both ways.
func TestJSONResponseBytesUnchanged(t *testing.T) {
	hz := []WireHazard{{Kind: "breakdown", Stage: "factorize", Detail: `column 3 <norm 0 & "tiny">`, Action: "fallback: householder"}}
	x := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-300, 5e-324, math.MaxFloat64, 1e21, 1e20, 123456.789, 1.0 / 3}
	long := make([]float64, 3000)
	for i := range long {
		long[i] = float64(i) / 7
	}
	responses := []any{
		&solveResponse{X: long, solveMeta: solveMeta{Iterations: 200, Key: "k"}},
		&factorizeResponse{Key: "abc", Rows: 2048, Cols: 512, Cached: true, EngineStats: wireEngineStats{GemmCalls: 6, Flops: 1 << 40}, Hazards: hz},
		&solveResponse{X: x, solveMeta: solveMeta{Iterations: 9, Converged: true, Optimality: 3.2e-13, Key: "abc@2", Hazards: hz}},
		&solveResponse{solveMeta: solveMeta{Key: "empty x"}},
		&updateResponse{Key: "abc@3", BaseKey: "abc", Epoch: 3, Rows: 2064, Cols: 512},
		&lowRankResponse{U: &WireMatrix{Rows: 2, Cols: 1, Data: []float64{0.6, 0.8}}, S: []float64{5}, V: &WireMatrix{Rows: 1, Cols: 1, Data: []float64{1}}, lowRankMeta: lowRankMeta{Rank: 1}},
		&errorBody{Error: errorDetail{Code: "bad_input", Message: "b holds 3 elements; the matrix has 4 rows"}},
	}
	for i, v := range responses {
		what := fmt.Sprintf("response %d (%T)", i, v)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got, err := encodeJSON(v)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(*got, want.Bytes()) {
			t.Errorf("%s:\n got %q\nwant %q", what, *got, want.Bytes())
		}
		wirefmt.PutBuffer(got)
	}
	bad := &solveResponse{X: []float64{math.NaN()}}
	if _, werr := json.Marshal(bad); werr == nil {
		t.Fatal("json encodes a NaN")
	}
	if got, err := encodeJSON(bad); err == nil {
		t.Errorf("encodeJSON of a NaN x: %q, no error", *got)
	}
}
