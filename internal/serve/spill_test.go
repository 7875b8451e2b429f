package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"tcqr"
	"tcqr/internal/faultinject"
)

// makeEntry factors one deterministic matrix into a cache entry (tier-level
// spill tests build entries directly, without a cache).
func makeEntry(t testing.TB, seed uint64, m, n int, key string, epoch uint64) *Entry {
	t.Helper()
	a := tcqr.FromColMajor(m, n, testMatrix(seed, m, n, 1))
	f, err := LibraryBackend{}.Factorize(a, tcqr.Config{})
	if err != nil {
		t.Fatalf("factorize %dx%d: %v", m, n, err)
	}
	e := &Entry{Key: key, Epoch: epoch, A: a, F: f}
	e.bytes = e.sizeBytes()
	return e
}

// spillBytes renders e as the base record of a fresh log, in memory.
func spillBytes(t testing.TB, e *Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := newSpillEncoder().base(&buf, e)
	if err != nil {
		t.Fatalf("encode %s: %v", e.Key, err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("encode %s: reported %d bytes, wrote %d", e.Key, n, buf.Len())
	}
	return buf.Bytes()
}

// spillLogBytes renders the log a tier writes for a series published as
// chain[0] and updated through the rest in turn: a base record, then one
// delta record per update.
func spillLogBytes(t testing.TB, chain ...*Entry) []byte {
	t.Helper()
	buf := bytes.NewBuffer(spillBytes(t, chain[0]))
	enc := newSpillEncoder()
	for i, e := range chain[1:] {
		prev := chain[i]
		at := buf.Len()
		n, err := enc.delta(buf, e, prev.Epoch, prev.A.Rows)
		if err != nil || n != int64(buf.Len()-at) {
			t.Fatalf("delta %s: reported %d bytes, wrote %d (%v)", e.Key, n, buf.Len()-at, err)
		}
	}
	return buf.Bytes()
}

// decodeWhole decodes buf as a log that is good to its last byte.
func decodeWhole(buf []byte) (*Entry, error) {
	e, good, _, err := decodeSpillLog(buf)
	if err == nil && good != int64(len(buf)) {
		err = fmt.Errorf("spill: %d bytes past the last good record", int64(len(buf))-good)
	}
	return e, err
}

// updated returns the entry an update of e publishes: A with its trailing
// remove rows dropped, then the rows of add stacked under it, and the
// factor f.
func updated(e *Entry, remove int, add *tcqr.Matrix, f *tcqr.Factorization) *Entry {
	a := dropRows64(e.A, remove)
	if add != nil {
		a = appendRows64(a, add)
	}
	ne := &Entry{Key: versionedKey(baseKey(e.Key), e.Epoch+1), Epoch: e.Epoch + 1, A: a, F: f, Config: e.Config}
	ne.bytes = ne.sizeBytes()
	return ne
}

// sameEntryBits reports the first difference between two entries' identity,
// shapes or bit patterns (A by Float64bits; R and the column scales by
// Float32bits, so NaN payloads and signed zeros count), or "".
func sameEntryBits(got, want *Entry) string {
	if got.Key != want.Key || got.Epoch != want.Epoch {
		return fmt.Sprintf("identity %q@%d, want %q@%d", got.Key, got.Epoch, want.Key, want.Epoch)
	}
	if got.Config != want.Config || got.F.Reorthogonalized != want.F.Reorthogonalized {
		return fmt.Sprintf("config %+v reortho=%v, want %+v reortho=%v",
			got.Config, got.F.Reorthogonalized, want.Config, want.F.Reorthogonalized)
	}
	if got.A.Rows != want.A.Rows || got.A.Cols != want.A.Cols {
		return fmt.Sprintf("A is %dx%d, want %dx%d", got.A.Rows, got.A.Cols, want.A.Rows, want.A.Cols)
	}
	for j := 0; j < want.A.Cols; j++ {
		for i := 0; i < want.A.Rows; i++ {
			if math.Float64bits(got.A.At(i, j)) != math.Float64bits(want.A.At(i, j)) {
				return fmt.Sprintf("A[%d,%d] not bit-identical", i, j)
			}
		}
	}
	if !slices.Equal(factorBits(got.F), factorBits(want.F)) {
		return "R or the column scales not bit-identical"
	}
	return ""
}

func spillFiles(t *testing.T, dir, pattern string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatalf("glob %s: %v", pattern, err)
	}
	return names
}

// --- format round trip ------------------------------------------------------

// TestSpillEntryRoundTrip: a spilled entry comes back bit for bit — A, the
// float32 factors at the width they have, scales, identity and config — its
// file is the matrices plus a few hundred bytes, and every corruption class
// fails closed.
func TestSpillEntryRoundTrip(t *testing.T) {
	e := makeEntry(t, 1, 48, 12, "mdeadbeef-test@3", 3)
	e.Config = tcqr.Config{Cutoff: 16, ReOrthogonalize: true, OnHazard: tcqr.HazardFallback}
	e.F.Reorthogonalized = true
	e.F.ColumnScales = make([]float32, 12)
	for i := range e.F.ColumnScales {
		e.F.ColumnScales[i] = float32(i + 1)
	}
	// Values a float conversion would not carry: a signalling-NaN payload
	// and a negative zero in a float32 factor.
	e.F.R.Set(2, 3, math.Float32frombits(0x7fa00001))
	e.F.R.Set(0, 5, float32(math.Copysign(0, -1)))
	buf := spillBytes(t, e)
	got, err := decodeWhole(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if diff := sameEntryBits(got, e); diff != "" {
		t.Fatalf("round trip: %s", diff)
	}

	// A strided view spills as the tight matrix it denotes.
	wide := tcqr.NewMatrix(e.A.Rows+5, e.A.Cols)
	view := wide.View(2, 0, e.A.Rows, e.A.Cols)
	view.CopyFrom(e.A)
	strided := &Entry{Key: e.Key, Epoch: e.Epoch, A: view, F: e.F, Config: e.Config}
	if !bytes.Equal(spillBytes(t, strided), buf) {
		t.Errorf("a strided A spills to different bytes than its tight copy")
	}

	big := makeEntry(t, 2, 2048, 128, "mbig", 0)
	m, n := int64(2048), int64(128)
	matrices := 8*m*n + 4*n*n + 4*int64(len(big.F.ColumnScales))
	if over := int64(len(spillBytes(t, big))) - matrices; over < 0 || over > 512 {
		t.Errorf("2048x128 file carries %d bytes of header, meta and checksum beyond its matrices, want 0..512", over)
	}

	// Every corruption class must fail closed, never half-decode. (A byte
	// past the base is a log tail that rewarm sets aside.)
	for _, tc := range []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"version", func(b []byte) []byte { b[4] = 99; return b }},
		{"meta bit", func(b []byte) []byte { b[spillHeaderLen+8] ^= 1; return b }},
		{"torn", func(b []byte) []byte { return b[:len(b)/2] }},
		{"one byte short", func(b []byte) []byte { return b[:len(b)-1] }},
		{"one byte long", func(b []byte) []byte { return append(b, 0) }},
		{"header only", func(b []byte) []byte { return b[:spillHeaderLen] }},
	} {
		if _, err := decodeWhole(tc.mut(bytes.Clone(buf))); err == nil {
			t.Errorf("%s corruption decoded cleanly", tc.name)
		}
	}
}

// --- tier behavior ----------------------------------------------------------

func TestSpillWriteRemoveRewarm(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewSpillTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e1 := makeEntry(t, 10, 32, 8, "mkey1-e00-p0-c0-r00-h0", 0)
	e2 := makeEntry(t, 11, 32, 8, "mkey2-e00-p0-c0-r00-h0", 0)
	sp.Enqueue(e1)
	sp.Enqueue(e2)
	sp.Remove(e1)
	sp.Flush()
	st := sp.Stats()
	if st.Writes != 2 || st.Removes != 1 || st.Files != 1 {
		t.Fatalf("tier stats %+v, want 2 writes, 1 remove, 1 file", st)
	}
	sp.Close()

	// A fresh tier over the same directory rewarms exactly the survivor.
	sp2, err := NewSpillTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	got := sp2.Rewarm()
	if len(got) != 1 || got[0].Key != e2.Key {
		t.Fatalf("rewarmed %d entries (want 1: %s)", len(got), e2.Key)
	}
	if st := sp2.Stats(); st.Loads != 1 || st.Rewarmed != 1 || st.LoadErrors != 0 {
		t.Fatalf("rewarm stats %+v", st)
	}
}

func TestSpillByteBudgetEvictsOldestFiles(t *testing.T) {
	dir := t.TempDir()
	// One 32x8 spill file is ~3KB; a 2-file budget forces the oldest out.
	e1 := makeEntry(t, 20, 32, 8, "mbudget1-x", 0)
	sp, err := NewSpillTier(dir, int64(len(spillBytes(t, e1)))*2+64)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	e2 := makeEntry(t, 21, 32, 8, "mbudget2-x", 0)
	e3 := makeEntry(t, 22, 32, 8, "mbudget3-x", 0)
	sp.Enqueue(e1)
	sp.Enqueue(e2)
	sp.Enqueue(e3)
	sp.Flush()
	st := sp.Stats()
	if st.Files != 2 || st.Evictions != 1 || st.BytesOnDisk > sp.maxBytes {
		t.Fatalf("tier stats %+v (budget %d)", st, sp.maxBytes)
	}
	if n := spillFiles(t, dir, "mbudget1*"); len(n) != 0 {
		t.Fatalf("oldest file survived the budget: %v", n)
	}
	if n := spillFiles(t, dir, "mbudget3*"); len(n) != 1 {
		t.Fatalf("newest file missing: %v", n)
	}
}

// TestSpillLoadFaultSkipsWithoutQuarantine: an injected read error (bad
// sector, transient IO) skips the file but does NOT quarantine it — the data
// may be fine and the next restart retries.
func TestSpillLoadFaultSkipsWithoutQuarantine(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewSpillTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.Enqueue(makeEntry(t, 30, 32, 8, "mloadfault-x", 0))
	sp.Flush()
	sp.Close()

	arm(t, "seed=2;serve.spill.load=error@once=1")
	sp2, err := NewSpillTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if got := sp2.Rewarm(); len(got) != 0 {
		t.Fatalf("faulted load returned %d entries", len(got))
	}
	if st := sp2.Stats(); st.LoadErrors != 1 || st.Quarantined != 0 {
		t.Fatalf("load-fault stats %+v: must skip, not quarantine", st)
	}
	if n := spillFiles(t, dir, "*"+spillExt); len(n) != 1 {
		t.Fatalf("file missing after skipped load: %v", n)
	}
	faultinject.Disarm()

	// The retry (next restart) succeeds.
	sp3, err := NewSpillTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp3.Close()
	if got := sp3.Rewarm(); len(got) != 1 {
		t.Fatalf("clean rewarm after skipped load: %d entries", len(got))
	}
}

// --- server integration -----------------------------------------------------

// TestServerRewarmServesWithoutRefactorize is the restart acceptance test: a
// daemon with -cache-dir factorizes and updates, a second daemon over the
// same directory rewarms, and a by-key solve of the newest epoch is a cache
// hit with ZERO backend factorizations.
func TestServerRewarmServesWithoutRefactorize(t *testing.T) {
	dir := t.TempDir()
	m, n, k := 64, 16, 8
	data := testMatrix(900, m, n, 1)
	block := testMatrix(901, k, n, 1)

	s1 := New(Options{Workers: 2, CacheDir: dir})
	h1 := s1.Handler()
	var fr factorizeReply
	if code, _ := post(t, h1, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	base := fr.Key
	var ur updateReply
	if code, _ := post(t, h1, "/v1/update",
		map[string]any{"key": base, "append": wireMat(k, n, block)}, &ur); code != 200 || ur.Epoch != 1 {
		t.Fatalf("update: code=%d reply=%+v", code, ur)
	}
	s1.spill.Flush()
	var statz statzResponse
	if code := get(t, h1, "/statz", &statz); code != 200 {
		t.Fatalf("statz: code=%d", code)
	}
	s1.Close()

	// The series is one log, named by its base key: epoch 0's base record
	// and epoch 1's delta, every byte of it counted as written.
	names := spillFiles(t, dir, "*"+spillExt)
	if len(names) != 1 || filepath.Base(names[0]) != spillFileName(base) {
		t.Fatalf("on-disk files after update: %v, want the one log %s", names, spillFileName(base))
	}
	buf, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if e, err := decodeWhole(buf); err != nil || e.Key != base+"@1" {
		t.Fatalf("the log decodes to %v, %v; want epoch 1", e, err)
	}
	if sz := statz.Spill; sz.Writes != 2 || sz.WrittenBytes != int64(len(buf)) || sz.BytesOnDisk != int64(len(buf)) {
		t.Fatalf("/statz spill %+v, want 2 writes of the log's %d bytes", sz, len(buf))
	}

	be := &countingBackend{inner: LibraryBackend{}}
	s2 := New(Options{Workers: 2, Backend: be, CacheDir: dir})
	defer s2.Close()
	h2 := s2.Handler()
	if cs := s2.Cache().Stats(); cs.Rewarmed != 1 || cs.Entries != 1 {
		t.Fatalf("cache after rewarm: %+v", cs)
	}

	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j) - 4
	}
	full := stackData(m, n, data, k, block)
	var sr solveReply
	code, _ := post(t, h2, "/v1/solve",
		map[string]any{"key": base, "b": matVecData(m+k, n, full, xTrue)}, &sr)
	if code != 200 || !sr.Cached || sr.Key != base+"@1" {
		t.Fatalf("rewarmed solve: code=%d cached=%v key=%q", code, sr.Cached, sr.Key)
	}
	if d := maxDiff(sr.X, xTrue); d > 1e-6 {
		t.Fatalf("rewarmed solve wrong by %g", d)
	}
	if got := be.factorize.Load(); got != 0 {
		t.Fatalf("rewarm cost %d backend factorizations, want 0", got)
	}

	// The rewarmed series keeps updating where it left off.
	if code, _ := post(t, h2, "/v1/update", map[string]any{"key": base, "remove_rows": k}, &ur); code != 200 || ur.Epoch != 2 {
		t.Fatalf("update after rewarm: code=%d reply=%+v", code, ur)
	}
}

// TestUpgradeIsNotSpilled: an upgrade is derived work. A key solved past
// its budget is upgraded in the cache and the spill log gains no record for
// it; a daemon restarted on the directory rewarms the cold R, bit for bit,
// with no factorization, and the key earns its upgrade again.
func TestUpgradeIsNotSpilled(t *testing.T) {
	dir := t.TempDir()
	m, n := 96, 16
	data := testMatrix(920, m, n, 1)
	s1 := New(Options{Workers: 2, CacheDir: dir})
	h1 := s1.Handler()
	var fr factorizeReply
	if code, _ := post(t, h1, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	cold, _ := s1.cache.Get(fr.Key)
	solveUntilUpgraded := func(s *Server) {
		t.Helper()
		for i := 0; s.cache.Stats().Upgraded == 0; i++ {
			if i == 50 {
				t.Fatal("50 solves and no upgrade published")
			}
			if code, _ := post(t, s.Handler(), "/v1/solve", map[string]any{"key": fr.Key, "b": testMatrix(uint64(i), m, 1, 1)}, nil); code != 200 {
				t.Fatalf("solve %d: code=%d", i, code)
			}
			awaitIdle(t, s)
		}
	}
	solveUntilUpgraded(s1)
	s1.spill.Flush()
	if st := s1.spill.Stats(); st.Writes != 1 {
		t.Fatalf("spill after the upgrade: %+v, want the factorize's one write", st)
	}
	s1.Close()

	be := &countingBackend{inner: LibraryBackend{}}
	s2 := New(Options{Workers: 2, Backend: be, CacheDir: dir})
	defer s2.Close()
	e, ok := s2.cache.Get(fr.Key)
	if !ok || e.upgraded || e.F.R.Hash64() != cold.F.R.Hash64() {
		t.Fatalf("rewarmed %v (upgraded=%v): want the cold R", ok, ok && e.upgraded)
	}
	solveUntilUpgraded(s2)
	if f, u := be.factorize.Load(), be.upgrade.Load(); f != 0 || u != 1 {
		t.Fatalf("after the restart: %d factorizations, %d upgrades; want 0 and 1", f, u)
	}
}

// TestServerRewarmQuarantinesTornFile is the crash-consistency acceptance
// test: the serve.spill.write failpoint models a power loss that leaves a
// torn file at the FINAL name (rename survived, data blocks did not). The
// restarted server must quarantine it, adopt only checksum-valid entries,
// and serve them with zero cold factorizations.
func TestServerRewarmQuarantinesTornFile(t *testing.T) {
	dir := t.TempDir()
	m, n := 48, 12
	dataA := testMatrix(910, m, n, 1)
	dataB := testMatrix(911, m, n, 1)

	arm(t, "seed=4;serve.spill.write=error@once=1")
	s1 := New(Options{Workers: 2, CacheDir: dir})
	h1 := s1.Handler()
	var frA, frB factorizeReply
	if code, _ := post(t, h1, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, dataA)}, &frA); code != 200 {
		t.Fatalf("factorize A: code=%d", code)
	}
	s1.spill.Flush() // A's write fires the fault → torn file at final name
	if code, _ := post(t, h1, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, dataB)}, &frB); code != 200 {
		t.Fatalf("factorize B: code=%d", code)
	}
	s1.spill.Flush()
	if st := s1.spill.Stats(); st.WriteErrors != 1 || st.Writes != 1 {
		t.Fatalf("spill stats after torn write: %+v", st)
	}
	s1.Close()
	faultinject.Disarm()

	be := &countingBackend{inner: LibraryBackend{}}
	s2 := New(Options{Workers: 2, Backend: be, CacheDir: dir})
	defer s2.Close()
	h2 := s2.Handler()

	st := s2.spill.Stats()
	if st.Loads != 2 || st.LoadErrors != 1 || st.Quarantined != 1 || st.Rewarmed != 1 {
		t.Fatalf("rewarm stats %+v, want 2 loads, 1 quarantined, 1 rewarmed", st)
	}
	if q := spillFiles(t, dir, "*"+spillQuarExt); len(q) != 1 {
		t.Fatalf("quarantine files: %v, want exactly 1", q)
	}
	if cs := s2.Cache().Stats(); cs.Rewarmed != 1 {
		t.Fatalf("cache rewarmed %d entries, want 1", cs.Rewarmed)
	}

	// B (valid) serves as a hit; A (torn) is honestly gone, never garbage.
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = 1
	}
	var sr solveReply
	code, _ := post(t, h2, "/v1/solve",
		map[string]any{"key": frB.Key, "b": matVecData(m, n, dataB, xTrue)}, &sr)
	if code != 200 || !sr.Cached || maxDiff(sr.X, xTrue) > 1e-6 {
		t.Fatalf("solve of valid rewarmed entry: code=%d cached=%v", code, sr.Cached)
	}
	if got := be.factorize.Load(); got != 0 {
		t.Fatalf("valid-entry solve cost %d factorizations, want 0", got)
	}
	var er envelope
	if code, _ := post(t, h2, "/v1/solve",
		map[string]any{"key": frA.Key, "b": make([]float64, m)}, &er); code != 404 || er.Error.Code != "unknown_key" {
		t.Fatalf("solve of quarantined entry: code=%d error=%+v, want 404 unknown_key", code, er.Error)
	}
}

// TestSpillKeepsPredecessorUntilSuccessorIsDurable: epoch N stays durable
// until epoch N+1 is. With the write of epoch 1's delta record failing (the
// failpoint tears it at the log's end, as a crash would), a restart must set
// the torn record aside and rewarm epoch 0 from the record before it,
// serving the bare key; only the torn epoch is lost. The clean path ends with
// one log per series: epoch 0's base and epoch 1's delta, nothing deleted.
func TestSpillKeepsPredecessorUntilSuccessorIsDurable(t *testing.T) {
	m, n, k := 64, 16, 8
	data := testMatrix(940, m, n, 1)
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j%3) - 1
	}
	// run factorizes and appends k rows on a server over dir, shuts it down
	// cleanly, and returns the base key and the first tier's final stats.
	run := func(dir string) (string, SpillStats) {
		s1 := New(Options{Workers: 2, CacheDir: dir})
		h1 := s1.Handler()
		var fr factorizeReply
		if code, _ := post(t, h1, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
			t.Fatalf("factorize: code=%d", code)
		}
		var ur updateReply
		if code, _ := post(t, h1, "/v1/update",
			map[string]any{"key": fr.Key, "append": wireMat(k, n, testMatrix(941, k, n, 1))}, &ur); code != 200 || ur.Epoch != 1 {
			t.Fatalf("update: code=%d reply=%+v", code, ur)
		}
		s1.spill.Flush()
		st := s1.spill.Stats()
		s1.Close()
		return fr.Key, st
	}
	baseLen := func(buf []byte) int64 {
		_, n, err := decodeSpillBase(buf)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	dir := t.TempDir()
	arm(t, "seed=5;serve.spill.write=error@once=2")
	base, st := run(dir)
	faultinject.Disarm()
	if st.Writes != 1 || st.WriteErrors != 1 || st.Removes != 0 || st.Files != 1 {
		t.Fatalf("spill stats after the failed epoch-1 write: %+v, want epoch 0's record kept", st)
	}
	torn, err := os.ReadFile(filepath.Join(dir, spillFileName(base)))
	if err != nil {
		t.Fatal(err)
	}
	good := baseLen(torn)
	if int64(len(torn)) <= good {
		t.Fatalf("the failpoint left a %d-byte log, its base is %d: no torn record", len(torn), good)
	}
	be := &countingBackend{inner: LibraryBackend{}}
	s2 := New(Options{Workers: 2, Backend: be, CacheDir: dir})
	defer s2.Close()
	if cs := s2.Cache().Stats(); cs.Rewarmed != 1 || cs.Entries != 1 {
		t.Fatalf("cache after rewarm: %+v, want the last durable epoch", cs)
	}
	if st := s2.spill.Stats(); st.Quarantined != 1 || st.LoadErrors != 0 || st.BytesOnDisk != good {
		t.Fatalf("rewarm stats %+v, want the torn record set aside and %d bytes kept", st, good)
	}
	if q, err := os.ReadFile(filepath.Join(dir, spillFileName(base)+spillQuarExt)); err != nil || !bytes.Equal(q, torn[good:]) {
		t.Fatalf("the quarantined tail is not the torn record (%v)", err)
	}
	var sr solveReply
	code, _ := post(t, s2.Handler(), "/v1/solve",
		map[string]any{"key": base, "b": matVecData(m, n, data, xTrue)}, &sr)
	if code != 200 || !sr.Cached || sr.Key != base || maxDiff(sr.X, xTrue) > 1e-6 {
		t.Fatalf("bare-key solve after restart: code=%d cached=%v key=%q, want 200 from %q", code, sr.Cached, sr.Key, base)
	}
	if got := be.factorize.Load(); got != 0 {
		t.Fatalf("rewarm cost %d backend factorizations, want 0", got)
	}

	clean := t.TempDir()
	_, st = run(clean)
	names := spillFiles(t, clean, "*"+spillExt)
	if st.Writes != 2 || st.Removes != 0 || st.Files != 1 || len(names) != 1 || filepath.Base(names[0]) != spillFileName(base) {
		t.Fatalf("clean path: stats %+v files %v, want one log of two records", st, names)
	}
	buf, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if e, err := decodeWhole(buf); err != nil || e.Key != base+"@1" || st.BytesOnDisk != int64(len(buf)) || st.WrittenBytes != int64(len(buf)) {
		t.Fatalf("clean log: %d bytes decode to %v (%v); stats %+v", len(buf), e, err, st)
	}
	if delta := int64(len(buf)) - baseLen(buf); delta != spillDeltaLen(int64(k), int64(n), false) {
		t.Fatalf("epoch 1 spilled %d bytes, want a %d-row delta of %d", delta, k, spillDeltaLen(int64(k), int64(n), false))
	}
}

// TestRewarmSetsTornTailAside: a crash mid-append leaves a log whose last
// record is cut short. Rewarm adopts the epoch before it, moves the torn
// bytes to <name>.quarantine and truncates the log, so its byte accounting is
// the good records' and the next restart does not read and set aside the
// same tail again; the next update appends after the last good record.
func TestRewarmSetsTornTailAside(t *testing.T) {
	dir := t.TempDir()
	base := "mstale-e00-p0-c0-r00-h0"
	e0 := makeEntry(t, 950, 40, 8, base, 0)
	e1 := updated(e0, 0, tcqr.FromColMajor(3, 8, testMatrix(951, 3, 8, 1)), makeEntry(t, 952, 43, 8, "", 0).F)
	e2 := updated(e1, 5, nil, makeEntry(t, 953, 38, 8, "", 0).F)
	full := spillLogBytes(t, e0, e1, e2)
	good := int64(len(spillLogBytes(t, e0, e1)))
	path := filepath.Join(dir, spillFileName(base))
	if err := os.WriteFile(path, full[:len(full)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s1 := New(Options{Workers: 1, CacheDir: dir})
	s1.spill.Flush()
	st := s1.spill.Stats()
	e, ok := s1.Cache().Get(base)
	if st.Loads != 1 || st.Rewarmed != 1 || st.Quarantined != 1 || st.LoadErrors != 0 || !ok {
		t.Fatalf("first restart: spill %+v, want 1 load, 1 rewarmed, 1 tail quarantined", st)
	}
	if diff := sameEntryBits(e, e1); diff != "" {
		t.Fatalf("rewarmed entry: %s, want epoch 1", diff)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != good || st.BytesOnDisk != good || st.Files != 1 {
		t.Fatalf("log after rewarm: %v (%v), stats %+v; want %d bytes on disk and accounted", fi, err, st, good)
	}
	if q, err := os.ReadFile(path + spillQuarExt); err != nil || !bytes.Equal(q, full[good:len(full)-7]) {
		t.Fatalf("quarantined tail: %d bytes (%v), want the %d torn ones", len(q), err, len(full)-7-int(good))
	}
	// The next update continues the log from epoch 1.
	s1.Cache().PublishUpdate(e, e2.A, e2.F)
	s1.spill.Flush()
	s1.Close()
	if buf, err := os.ReadFile(path); err != nil || !bytes.Equal(buf, full) {
		t.Fatalf("the log after epoch 2 is not base + two deltas (%v)", err)
	}

	s2 := New(Options{Workers: 1, CacheDir: dir})
	defer s2.Close()
	if st := s2.spill.Stats(); st.Loads != 1 || st.Rewarmed != 1 || st.Quarantined != 0 {
		t.Fatalf("second restart set a tail aside again: %+v", st)
	}
	if e, ok := s2.Cache().Get(base); !ok || sameEntryBits(e, e2) != "" {
		t.Fatalf("second restart did not rewarm epoch 2")
	}
}

// TestSpillChaosSoak (make chaos) churns factorize/update/solve traffic with
// spill writes and update applies randomly faulted, then restarts over the
// same directory and asserts crash consistency: every file the rewarm pass
// accepts must solve correctly, every torn file is quarantined, and the
// accounting balances (loads == quarantined + rewarmed).
func TestSpillChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spill chaos soak skipped in -short mode")
	}
	dir := t.TempDir()
	m, n, k := 48, 8, 6

	arm(t, "seed=77"+
		";serve.spill.write=error@p=0.2"+
		";serve.update.apply=error@p=0.15"+
		";serve.cache.factorize=error@p=0.05")
	s1 := New(Options{Workers: 4, CacheEntries: 8, CacheDir: dir})
	h1 := s1.Handler()

	var fr factorizeReply
	if code, _ := post(t, h1, "/v1/factorize",
		map[string]any{"matrix": wireMat(m, n, testMatrix(920, m, n, 1))}, &fr); code != 200 {
		t.Fatalf("seed factorize: code=%d", code)
	}
	base := fr.Key
	block := testMatrix(921, k, n, 1)
	b0 := make([]float64, m)

	const clients, iters = 8, 24
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var code int
				switch (g + i) % 4 {
				case 0:
					code, _ = post(t, h1, "/v1/factorize",
						map[string]any{"matrix": wireMat(m, n, testMatrix(uint64(930+i%5), m, n, 1))}, nil)
				case 1:
					if i%2 == 0 {
						code, _ = post(t, h1, "/v1/update",
							map[string]any{"key": base, "append": wireMat(k, n, block)}, nil)
					} else {
						code, _ = post(t, h1, "/v1/update",
							map[string]any{"key": base, "remove_rows": k}, nil)
					}
				default:
					code, _ = post(t, h1, "/v1/solve", map[string]any{"key": base, "b": b0}, nil)
				}
				if !legalChaosStatus[code] {
					t.Errorf("client %d op %d: illegal status %d", g, i, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s1.spill.Flush()
	s1.Close()
	faultinject.Disarm()

	// Decode the surviving logs ourselves to establish ground truth, then
	// restart and demand the server agrees with the disk.
	type truth struct {
		epoch uint64
		a     *tcqr.Matrix
	}
	newest := map[string]truth{} // base key -> newest good epoch on disk
	torn := 0
	for _, name := range spillFiles(t, dir, "*"+spillExt) {
		buf, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		e, good, _, err := decodeSpillLog(buf)
		if err != nil || good < int64(len(buf)) {
			// A base or a last record the injected crashes tore: rewarm
			// must quarantine it.
			torn++
		}
		if err == nil {
			newest[baseKey(e.Key)] = truth{epoch: e.Epoch, a: e.A}
		}
	}
	if len(newest) == 0 {
		t.Fatal("chaos left no valid spill files; the soak exercised nothing")
	}

	be := &countingBackend{inner: LibraryBackend{}}
	s2 := New(Options{Workers: 2, CacheEntries: 64, Backend: be, CacheDir: dir})
	defer s2.Close()
	h2 := s2.Handler()
	st := s2.spill.Stats()
	if st.Loads != st.LoadErrors+st.Rewarmed || st.Rewarmed != int64(len(newest)) {
		t.Fatalf("rewarm accounting does not balance: %+v, %d good logs on disk", st, len(newest))
	}
	if st.Quarantined != int64(torn) {
		t.Fatalf("rewarm quarantined %d files and tails, the disk held %d torn ones: %+v", st.Quarantined, torn, st)
	}
	for bk, tr := range newest {
		key := versionedKey(bk, tr.epoch)
		x := make([]float64, tr.a.Cols)
		for j := range x {
			x[j] = float64(j + 1)
		}
		b := make([]float64, tr.a.Rows)
		for j := 0; j < tr.a.Cols; j++ {
			for i := 0; i < tr.a.Rows; i++ {
				b[i] += tr.a.At(i, j) * x[j]
			}
		}
		var sr solveReply
		code, _ := post(t, h2, "/v1/solve", map[string]any{"key": key, "b": b}, &sr)
		if code != 200 || !sr.Cached {
			t.Fatalf("adopted entry %s does not serve: code=%d cached=%v", key, code, sr.Cached)
		}
		if d := maxDiff(sr.X, x); d > 1e-4 {
			t.Fatalf("adopted entry %s solves wrong by %g: disk state is garbage", key, d)
		}
	}
	if got := be.factorize.Load(); got != 0 {
		t.Fatalf("rewarmed solves cost %d cold factorizations, want 0", got)
	}
}

// BenchmarkRewarmedHitSolve measures the warm-solve latency against an entry
// adopted from disk at startup: a rewarmed entry must serve
// at cache-hit speed with zero cold factorizations — the whole point of the
// spill tier is that a restart costs disk reads, not a factorize stampede.
func BenchmarkRewarmedHitSolve(b *testing.B) {
	dir := b.TempDir()
	data := testMatrix(1234, benchRows, benchCols, 1)
	fbody, err := json.Marshal(map[string]any{"matrix": wireMat(benchRows, benchCols, data)})
	if err != nil {
		b.Fatal(err)
	}
	s1 := New(Options{CacheDir: dir})
	key := mustFactorize(s1.Handler(), fbody)
	s1.spill.Flush()
	s1.Close()

	be := &countingBackend{inner: LibraryBackend{}}
	s2 := New(Options{Backend: be, CacheDir: dir})
	defer s2.Close()
	h := s2.Handler()
	x := make([]float64, benchCols)
	for j := range x {
		x[j] = float64(j%11) - 5
	}
	sbody, err := json.Marshal(map[string]any{"key": key, "b": matVecData(benchRows, benchCols, data, x)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(sbody)))
		if rec.Code != 200 {
			b.Fatalf("rewarmed solve: code=%d body=%s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	if got := be.factorize.Load(); got != 0 {
		b.Fatalf("rewarmed solves cost %d cold factorizations, want 0", got)
	}
}
