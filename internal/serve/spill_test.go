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
	"strings"
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

// spillBytes renders e's spill file in memory.
func spillBytes(t testing.TB, e *Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := encodeSpillEntry(&buf, e)
	if err != nil {
		t.Fatalf("encode %s: %v", e.Key, err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("encode %s: reported %d bytes, wrote %d", e.Key, n, buf.Len())
	}
	return buf.Bytes()
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
	got, err := decodeSpillEntry(buf)
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
	strided := *e
	strided.A = view
	if !bytes.Equal(spillBytes(t, &strided), buf) {
		t.Errorf("a strided A spills to different bytes than its tight copy")
	}

	big := makeEntry(t, 2, 2048, 128, "mbig", 0)
	m, n := int64(2048), int64(128)
	matrices := 8*m*n + 4*n*n + 4*int64(len(big.F.ColumnScales))
	if over := int64(len(spillBytes(t, big))) - matrices; over < 0 || over > 512 {
		t.Errorf("2048x128 file carries %d bytes of header, meta and checksum beyond its matrices, want 0..512", over)
	}

	// Every corruption class must fail closed, never half-decode.
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
		if _, err := decodeSpillEntry(tc.mut(bytes.Clone(buf))); err == nil {
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
	sp.Remove(e1.Key)
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
	s1.Close()

	// Epoch 0 was retired when epoch 1 published, so exactly one file — the
	// newest epoch — survives on disk.
	if names := spillFiles(t, dir, "*"+spillExt); len(names) != 1 || !strings.Contains(names[0], "@1") {
		t.Fatalf("on-disk files after update: %v, want just the @1 epoch", names)
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

// TestSpillKeepsPredecessorUntilSuccessorIsDurable: the spill file of epoch N
// is deleted only after epoch N+1's file is in place. With the write of
// epoch 1 failing (the failpoint tears it, as a crash would), a restart must
// rewarm epoch 0 and serve the bare key from it; it rewarmed nothing when
// the removal of epoch 0 was queued ahead of the write. The clean path still
// ends with one file per series.
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

	dir := t.TempDir()
	arm(t, "seed=5;serve.spill.write=error@once=2")
	base, st := run(dir)
	faultinject.Disarm()
	if st.Writes != 1 || st.WriteErrors != 1 || st.Removes != 0 || st.Files != 1 {
		t.Fatalf("spill stats after the failed epoch-1 write: %+v, want epoch 0's file kept", st)
	}
	be := &countingBackend{inner: LibraryBackend{}}
	s2 := New(Options{Workers: 2, Backend: be, CacheDir: dir})
	defer s2.Close()
	if cs := s2.Cache().Stats(); cs.Rewarmed != 1 || cs.Entries != 1 {
		t.Fatalf("cache after rewarm: %+v, want the last durable epoch", cs)
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
	if st.Writes != 2 || st.Removes != 1 || st.Files != 1 || len(names) != 1 || !strings.Contains(names[0], "@1") {
		t.Fatalf("clean path: stats %+v files %v, want just the @1 epoch", st, names)
	}
}

// TestRewarmRemovesStaleSiblings: a crash between epoch 1's rename and epoch
// 0's delete leaves both files. Rewarm adopts the newer, and deletes the
// older with its byte accounting instead of re-reading and declining it at
// every restart.
func TestRewarmRemovesStaleSiblings(t *testing.T) {
	dir := t.TempDir()
	base := "mstale-e00-p0-c0-r00-h0"
	var sizes [2]int64
	for epoch := range sizes {
		e := makeEntry(t, uint64(950+epoch), 32+epoch, 8, versionedKey(base, uint64(epoch)), uint64(epoch))
		buf := spillBytes(t, e)
		if err := os.WriteFile(filepath.Join(dir, spillFileName(e.Key)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		sizes[epoch] = int64(len(buf))
	}

	s1 := New(Options{Workers: 1, CacheDir: dir})
	s1.spill.Flush()
	st := s1.spill.Stats()
	cs := s1.Cache().Stats()
	s1.Close()
	if st.Loads != 2 || cs.Rewarmed != 1 || cs.Entries != 1 {
		t.Fatalf("first restart: spill %+v cache %+v, want 2 loads and the newer epoch adopted", st, cs)
	}
	if st.Files != 1 || st.BytesOnDisk != sizes[1] {
		t.Fatalf("stale sibling still accounted: %+v, want 1 file of %d bytes", st, sizes[1])
	}
	if names := spillFiles(t, dir, "*"+spillExt); len(names) != 1 || !strings.Contains(names[0], "@1") {
		t.Fatalf("on-disk files after rewarm: %v, want just the @1 epoch", names)
	}

	s2 := New(Options{Workers: 1, CacheDir: dir})
	defer s2.Close()
	if st := s2.spill.Stats(); st.Loads != 1 || st.Rewarmed != 1 {
		t.Fatalf("second restart re-read the stale file: %+v", st)
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

	// Decode the surviving files ourselves to establish ground truth, then
	// restart and demand the server agrees with the disk.
	type truth struct {
		epoch uint64
		a     *tcqr.Matrix
	}
	newest := map[string]truth{} // base key -> newest epoch on disk
	torn := 0
	for _, name := range spillFiles(t, dir, "*"+spillExt) {
		buf, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := decodeSpillEntry(buf)
		if err != nil {
			// A file the injected crashes tore: rewarm must quarantine it.
			torn++
			continue
		}
		if tr, ok := newest[baseKey(e.Key)]; !ok || e.Epoch > tr.epoch {
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
	if st.Loads != st.LoadErrors+st.Rewarmed || st.LoadErrors != st.Quarantined {
		t.Fatalf("rewarm accounting does not balance: %+v", st)
	}
	if st.Quarantined != int64(torn) {
		t.Fatalf("rewarm quarantined %d files, the disk held %d torn ones: %+v", st.Quarantined, torn, st)
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
