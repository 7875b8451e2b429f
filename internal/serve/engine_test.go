package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tcqr"
	"tcqr/internal/tcsim"
	"tcqr/internal/wirefmt"
)

// TestEngineKindsThroughServe walks every row of the engine table through
// the layers that used to keep their own copy of it: wire name → Config,
// cache-key fingerprint, spill meta round trip, metrics label.
func TestEngineKindsThroughServe(t *testing.T) {
	e := makeEntry(t, 7, 32, 8, "mkinds", 0)
	// Keys issued by earlier builds spell each engine this way, and the
	// README's cache-key examples show the first; the 0 after the engine is
	// the retired panel-engine flag (configFingerprint).
	wantFP := []string{"e00-p0-c0-r00-h0", "e10-p0-c0-r00-h0", "e20-p0-c0-r00-h0", "e30-p0-c0-r00-h0"}
	if len(tcsim.Kinds()) != len(wantFP) {
		t.Fatalf("%d engine kinds, %d pinned fingerprints", len(tcsim.Kinds()), len(wantFP))
	}
	for i, k := range tcsim.Kinds() {
		cfg, err := WireConfig{Engine: k.String()}.config()
		if err != nil || cfg.Engine != k {
			t.Fatalf("wire engine %q → %v, %v", k.String(), cfg.Engine, err)
		}
		if fp := configFingerprint(cfg); fp != wantFP[i] {
			t.Errorf("fingerprint of %v = %q, want %q", k, fp, wantFP[i])
		}

		e.Config = cfg
		got, err := decodeWhole(spillBytes(t, e))
		if err != nil {
			t.Fatalf("decode %+v: %v", cfg, err)
		}
		if diff := sameEntryBits(got, e); diff != "" {
			t.Errorf("spill round trip under %+v: %s", cfg, diff)
		}
		if got := engineLabel(k.New().Name()); got != k.Label() {
			t.Errorf("engineLabel(%v) = %q, want %q", k, got, k.Label())
		}
	}
	if got := engineLabel("FP8-GEMM"); got != "other" {
		t.Errorf("engineLabel of an unknown engine = %q, want other", got)
	}
}

// TestUnknownEngineAndPanelNames: the wire 400 carries the same valid-name
// list as the flags, straight from the tables. The retired "cholqr" panel and
// "classical" method get it too: no other panel or method answers under the
// name the client asked for.
func TestUnknownEngineAndPanelNames(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	good := wireMat(16, 4, testMatrix(60, 16, 4, 1))
	factorize := func(field, name string) map[string]any {
		return map[string]any{"matrix": good, "config": map[string]any{field: name}}
	}
	cases := []struct {
		path string
		body map[string]any
		want string
	}{
		{"/v1/factorize", factorize("engine", "bogus"), fmt.Sprint(tcsim.Kinds())},
		{"/v1/factorize", factorize("panel", "bogus"), "[caqr householder mgs]"},
		{"/v1/factorize", factorize("panel", "cholqr"), `unknown panel "cholqr" (want one of [caqr householder mgs])`},
		{"/v1/solve", map[string]any{"matrix": good, "b": make([]float64, 16), "options": map[string]any{"method": "classical"}},
			`unknown method "classical" (want cgls or lsqr)`},
	}
	for _, tc := range cases {
		var er envelope
		code, _ := post(t, s.Handler(), tc.path, tc.body, &er)
		if code != 400 || er.Error.Code != "bad_input" || !strings.Contains(er.Error.Message, tc.want) {
			t.Errorf("%s %v: %d %q %q, want 400 bad_input listing %s", tc.path, tc.body, code, er.Error.Code, er.Error.Message, tc.want)
		}
	}
}

// legacySpillFile renders e in the layout TCQS v1–v3 shared: a 20-byte
// header (magic, version, crc32 and length of the payload) ahead of a
// wirefmt frame of the meta and A, Q, R as float64 matrix sections. An entry
// holds no Q, so the file's factors are tcqr.Factorize's of e.A.
func legacySpillFile(t *testing.T, version byte, meta []byte, e *Entry) []byte {
	t.Helper()
	qr, err := tcqr.Factorize(e.A, e.Config)
	if err != nil {
		t.Fatal(err)
	}
	f64 := func(m *tcqr.Matrix32) []float64 {
		out := make([]float64, 0, m.Rows*m.Cols)
		for j := 0; j < m.Cols; j++ {
			for _, x := range m.Col(j) {
				out = append(out, float64(x))
			}
		}
		return out
	}
	const headerLen = 20
	file, err := wirefmt.AppendFrame(make([]byte, headerLen),
		wirefmt.JSONSection(meta),
		wirefmt.MatrixSection(e.A.Rows, e.A.Cols, colMajorData(e.A)),
		wirefmt.MatrixSection(qr.Q.Rows, qr.Q.Cols, f64(qr.Q)),
		wirefmt.MatrixSection(qr.R.Rows, qr.R.Cols, f64(qr.R)))
	if err != nil {
		t.Fatal(err)
	}
	copy(file, spillMagic)
	file[4] = version
	binary.LittleEndian.PutUint32(file[8:12], crc32.ChecksumIEEE(file[headerLen:]))
	binary.LittleEndian.PutUint64(file[12:20], uint64(len(file)-headerLen))
	return file
}

// TestRewarmQuarantinesV1SpillFile: files of every retired TCQS version,
// each valid by its own version's rules. A v1 file spelled the engine as
// three booleans — decoding its meta with today's struct would silently
// yield a default-engine entry. A v2 file has today's meta, but for shapes
// the daemon used to route through TSQR it holds a TSQR factor under a key
// that now denotes the RGSQRF factor. A v3 file is a v2 file under another
// version byte. There is no legacy reader for any of them, so rewarm must
// quarantine and count the file, never adopt it.
func TestRewarmQuarantinesV1SpillFile(t *testing.T) {
	e := makeEntry(t, 8, 32, 8, "mv1file", 0)
	meta, err := json.Marshal(spillMeta{Key: e.Key, Rows: 32, Cols: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		version byte
		meta    []byte
	}{
		{"v1 meta", 1, []byte(`{"key":"mv1file","epoch":0,"rows":32,"cols":8,"config":{"bf16":true}}`)},
		{"v2 header", 2, meta},
		{"v3 frame", 3, meta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			file := legacySpillFile(t, tc.version, tc.meta, e)
			if err := os.WriteFile(filepath.Join(dir, spillFileName(e.Key)), file, 0o644); err != nil {
				t.Fatal(err)
			}
			sp, err := NewSpillTier(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sp.Close()
			if got := sp.Rewarm(); len(got) != 0 {
				t.Fatalf("rewarmed %d entries (config %+v)", len(got), got[0].Config)
			}
			if st := sp.Stats(); st.Loads != 1 || st.Quarantined != 1 || st.Rewarmed != 0 {
				t.Fatalf("rewarm stats %+v, want 1 load, 1 quarantined, 0 rewarmed", st)
			}
			if q := spillFiles(t, dir, "*"+spillQuarExt); len(q) != 1 {
				t.Fatalf("quarantine files %v, want exactly 1", q)
			}
		})
	}
}

// factorBits flattens the numerical identity of a cached factor — R and the
// column scales; an entry keeps no Q — to its float32 bit patterns.
func factorBits(f *tcqr.Factorization) []uint32 {
	var out []uint32
	for j := 0; j < f.R.Cols; j++ {
		for _, x := range f.R.Col(j) {
			out = append(out, math.Float32bits(x))
		}
	}
	for _, x := range f.ColumnScales {
		out = append(out, math.Float32bits(x))
	}
	return out
}

// TestServedFactorsAreLibraryFactors: the factor /v1/factorize caches under
// a key is, bit for bit, tcqr.Factorize of the request's matrix under the
// request's config — at every shape, tall-skinny included, and on every
// engine — and engine_stats reports that run's GEMMs. Replicas recompute a
// key's factor from the same call, so anything else in the path (a second
// kernel chosen by shape, a knob outside the cache fingerprint) would let
// two nodes hold different bits under one key. At 2048x256, wide enough to
// split so the engine GEMMs run, the four engines' keys must hold four
// different factors. The same holds, hazards, engine_stats and refusals
// included, on every panel, with the second pass, with and without column
// scaling, for a column far beyond fp16's range, and along the fallback
// ladder.
func TestServedFactorsAreLibraryFactors(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	for si, shape := range [][2]int{{64, 16}, {2048, 16}, {2048, 256}, {512, 512}} {
		m, n := shape[0], shape[1]
		data := testMatrix(uint64(90+si), m, n, 1)
		a := tcqr.FromColMajor(m, n, data)
		var served [][]uint32
		for _, k := range tcsim.Kinds() {
			var fr factorizeResponse
			code, _ := post(t, h, "/v1/factorize", map[string]any{
				"matrix": wireMat(m, n, data), "config": map[string]any{"engine": k.String()}}, &fr)
			if code != 200 || fr.Cached {
				t.Fatalf("%dx%d %v: status %d cached=%v, want a cold 200", m, n, k, code, fr.Cached)
			}
			want, err := tcqr.Factorize(tcqr.ToFloat32(a), tcqr.Config{Engine: k})
			if err != nil {
				t.Fatal(err)
			}
			e, ok := s.cache.Get(fr.Key)
			if !ok {
				t.Fatalf("%dx%d %v: key %q not cached", m, n, k, fr.Key)
			}
			got := factorBits(e.F)
			if !slices.Equal(got, factorBits(want)) {
				t.Errorf("%dx%d %v: cached factor differs from tcqr.Factorize", m, n, k)
			}
			if fr.EngineStats.GemmCalls != want.EngineStats.GemmCalls {
				t.Errorf("%dx%d %v: engine_stats.gemm_calls = %d, library ran %d",
					m, n, k, fr.EngineStats.GemmCalls, want.EngineStats.GemmCalls)
			}
			if m == 2048 && n == 256 {
				for i, other := range served {
					if slices.Equal(got, other) {
						t.Errorf("2048x256: %v and %v keys hold the same factor", tcsim.Kinds()[i], k)
					}
				}
				served = append(served, got)
			}
		}
	}

	// The axes on which the request's float64 matrix could part from its
	// narrowing: the panel, the second pass, column scaling, a column far
	// beyond fp16's range with scaling on and off, and a zero column that
	// climbs the fallback ladder. Cutoff 16 makes the recursion split at
	// 512x64, so every panel and engine runs.
	const m, n = 512, 64
	plain := testMatrix(95, m, n, 1)
	huge := testMatrix(96, m, n, 1e30)
	zero := testMatrix(97, m, n, 1)
	clear(zero[5*m : 6*m])
	cases := []struct {
		name string
		data []float64
		cfg  map[string]any
	}{
		{"caqr", plain, map[string]any{"panel": "caqr"}},
		{"householder", plain, map[string]any{"panel": "householder"}},
		{"mgs", plain, map[string]any{"panel": "mgs"}},
		{"reorthogonalize", plain, map[string]any{"reorthogonalize": true}},
		{"unscaled", plain, map[string]any{"disable_column_scaling": true}},
		{"1e30 column", huge, map[string]any{}},
		{"1e30 column unscaled", huge, map[string]any{"disable_column_scaling": true}},
		{"1e30 column unscaled fallback", huge, map[string]any{"disable_column_scaling": true, "on_hazard": "fallback"}},
		{"zero column fallback", zero, map[string]any{"on_hazard": "fallback"}},
	}
	for _, tc := range cases {
		for _, k := range tcsim.Kinds() {
			wc := map[string]any{"engine": k.String(), "cutoff": 16}
			maps.Copy(wc, tc.cfg)
			cfgJSON, _ := json.Marshal(wc)
			var cw WireConfig
			if err := json.Unmarshal(cfgJSON, &cw); err != nil {
				t.Fatal(err)
			}
			cfg, err := cw.config()
			if err != nil {
				t.Fatal(err)
			}
			want, werr := tcqr.Factorize(tcqr.ToFloat32(tcqr.FromColMajor(m, n, tc.data)), cfg)
			var body json.RawMessage
			code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, tc.data), "config": wc}, &body)
			if werr != nil {
				ae := classifyError(werr)
				var er envelope
				if err := json.Unmarshal(body, &er); err != nil {
					t.Fatalf("%s %v: undecodable error body %q", tc.name, k, body)
				}
				if code != ae.status || er.Error.Code != ae.code || er.Error.Message != ae.msg {
					t.Errorf("%s %v: served %d %s %q, library refused with %d %s %q",
						tc.name, k, code, er.Error.Code, er.Error.Message, ae.status, ae.code, ae.msg)
				}
				continue
			}
			var fr factorizeResponse
			if err := json.Unmarshal(body, &fr); err != nil || code != 200 || fr.Cached {
				t.Fatalf("%s %v: status %d cached=%v (%v) %s, want a cold 200", tc.name, k, code, fr.Cached, err, body)
			}
			e, ok := s.cache.Get(fr.Key)
			if !ok {
				t.Fatalf("%s %v: key %q not cached", tc.name, k, fr.Key)
			}
			if !slices.Equal(factorBits(e.F), factorBits(want)) {
				t.Errorf("%s %v: cached factor differs from tcqr.Factorize", tc.name, k)
			}
			ws := want.EngineStats
			if st := fr.EngineStats; st != (wireEngineStats{ws.GemmCalls, ws.Flops, ws.Overflows, ws.Underflows}) {
				t.Errorf("%s %v: engine_stats %+v, library ran %+v", tc.name, k, st, ws)
			}
			if fr.Reorthogonalized != want.Reorthogonalized {
				t.Errorf("%s %v: reorthogonalized %v, library %v", tc.name, k, fr.Reorthogonalized, want.Reorthogonalized)
			}
			if !slices.Equal(fr.Hazards, wireHazards(want.Hazards)) {
				t.Errorf("%s %v: hazards %+v, library reported %+v", tc.name, k, fr.Hazards, want.Hazards)
			}
		}
	}
}
