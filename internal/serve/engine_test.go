package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
	fingerprints := map[string]tcqr.Config{}
	for _, k := range tcsim.Kinds() {
		cfg, err := WireConfig{Engine: k.String()}.config()
		if err != nil || cfg.Engine != k {
			t.Fatalf("wire engine %q → %v, %v", k.String(), cfg.Engine, err)
		}
		for _, inPanel := range []bool{false, true} {
			cfg.TensorCoreInPanel = inPanel
			fp := configFingerprint(cfg)
			if prev, dup := fingerprints[fp]; dup {
				t.Errorf("fingerprint %q shared by %+v and %+v", fp, prev, cfg)
			}
			fingerprints[fp] = cfg

			e.Config = cfg
			buf, err := encodeSpillEntry(e)
			if err != nil {
				t.Fatalf("encode %+v: %v", cfg, err)
			}
			got, err := decodeSpillEntry(buf)
			if err != nil {
				t.Fatalf("decode %+v: %v", cfg, err)
			}
			if got.Config != cfg {
				t.Errorf("spill round trip: got %+v want %+v", got.Config, cfg)
			}
		}
		if got := engineLabel(k.New(false).Name()); got != k.Label() {
			t.Errorf("engineLabel(%v) = %q, want %q", k, got, k.Label())
		}
	}
	if got := engineLabel("FP8-GEMM"); got != "other" {
		t.Errorf("engineLabel of an unknown engine = %q, want other", got)
	}

	// The README's cache-key examples show this string; regenerate them if
	// it has to change.
	if got, want := configFingerprint(tcqr.Config{}), "e00-p0-c0-r00-h0"; got != want {
		t.Errorf("zero-Config fingerprint %q, want %q", got, want)
	}
}

// TestUnknownEngineAndPanelNames: the wire 400 carries the same valid-name
// list as the flags, straight from the tables.
func TestUnknownEngineAndPanelNames(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	good := wireMat(16, 4, testMatrix(60, 16, 4, 1))
	for field, want := range map[string]string{"engine": fmt.Sprint(tcsim.Kinds()), "panel": "[caqr householder cholqr mgs]"} {
		var er envelope
		code, _ := post(t, s.Handler(), "/v1/factorize",
			map[string]any{"matrix": good, "config": map[string]any{field: "bogus"}}, &er)
		if code != 400 || er.Error.Code != "bad_input" || !strings.Contains(er.Error.Message, want) {
			t.Errorf("bogus %s: %d %q %q, want 400 bad_input listing %s", field, code, er.Error.Code, er.Error.Message, want)
		}
	}
}

// TestDefaultEngineSharesCacheEntry: a request that names no engine is
// keyed exactly like one that names the server's default.
func TestDefaultEngineSharesCacheEntry(t *testing.T) {
	s := New(Options{Workers: 1, DefaultEngine: tcqr.EngineBF16})
	defer s.Close()
	mat := wireMat(32, 8, testMatrix(61, 32, 8, 1))
	var unset, named, other factorizeReply
	post(t, s.Handler(), "/v1/factorize", map[string]any{"matrix": mat}, &unset)
	post(t, s.Handler(), "/v1/factorize", map[string]any{"matrix": mat, "config": map[string]any{"engine": "bf16"}}, &named)
	post(t, s.Handler(), "/v1/factorize", map[string]any{"matrix": mat, "config": map[string]any{"engine": "fp16"}}, &other)
	if unset.Key == "" || unset.Key != named.Key || !named.Cached {
		t.Errorf("defaulted key %q vs explicit bf16 key %q (cached=%v): want one shared entry", unset.Key, named.Key, named.Cached)
	}
	if other.Key == unset.Key {
		t.Errorf("an explicit fp16 request got the bf16 default's key %q", other.Key)
	}
}

// TestRewarmQuarantinesV1SpillFile: a TCQS v1 file spelled the engine as
// three booleans. There is no legacy reader — decoding its meta with the v2
// struct would silently yield a default-engine entry — so rewarm must
// quarantine and count it, never adopt it.
func TestRewarmQuarantinesV1SpillFile(t *testing.T) {
	e := makeEntry(t, 8, 32, 8, "mv1file", 0)
	v1, err := wirefmt.AppendFrame(make([]byte, spillHeaderLen),
		wirefmt.JSONSection([]byte(`{"key":"mv1file","epoch":0,"rows":32,"cols":8,"config":{"bf16":true}}`)),
		wirefmt.MatrixSection(32, 8, colMajorData(e.A)),
		wirefmt.MatrixSection(32, 8, widen32(e.F.Q)),
		wirefmt.MatrixSection(8, 8, widen32(e.F.R)))
	if err != nil {
		t.Fatal(err)
	}
	copy(v1, spillMagic)
	v1[4] = 1
	binary.LittleEndian.PutUint32(v1[8:12], crc32.ChecksumIEEE(v1[spillHeaderLen:]))
	binary.LittleEndian.PutUint64(v1[12:20], uint64(len(v1)-spillHeaderLen))

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, spillFileName(e.Key)), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpillTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if got := sp.Rewarm(); len(got) != 0 {
		t.Fatalf("rewarmed %d entries from a v1 file (config %+v)", len(got), got[0].Config)
	}
	if st := sp.Stats(); st.Loads != 1 || st.Quarantined != 1 || st.Rewarmed != 0 {
		t.Fatalf("rewarm stats %+v, want 1 load, 1 quarantined, 0 rewarmed", st)
	}
	if q := spillFiles(t, dir, "*"+spillQuarExt); len(q) != 1 {
		t.Fatalf("quarantine files %v, want exactly 1", q)
	}
}
