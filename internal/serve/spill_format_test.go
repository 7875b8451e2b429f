package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"testing"
	"time"

	"tcqr"
)

// goldenSpillEntry is the entry testdata/entry_v5.tcqs holds, and the base
// of testdata/entry_v6.tcqs: written out by formula, not factorized, so the
// files pin the layout and nothing else. Every field of the meta is off its
// zero value and each section holds a bit pattern only a bitwise copy
// preserves.
func goldenSpillEntry() *Entry {
	const m, n = 5, 3
	a := tcqr.NewMatrix(m, n)
	r := tcqr.NewMatrix32(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, float64(i+1)/float64(j+3))
		}
		for i := 0; i <= j; i++ {
			r.Set(i, j, float32(i+2*j+1)/3)
		}
	}
	a.Set(0, 1, math.Copysign(0, -1))
	a.Set(4, 2, math.Float64frombits(0x7ff0000000000001)) // signalling NaN
	r.Set(1, 2, math.Float32frombits(1))                  // smallest subnormal
	r.Set(0, 2, math.Float32frombits(0x7fa00001))         // signalling NaN
	return &Entry{
		Key:   "mgolden-e20-p1-c64-r11-h1@7",
		Epoch: 7,
		A:     a,
		F: &tcqr.Factorization{R: r, Reorthogonalized: true,
			ColumnScales: []float32{0.5, 2, 1024}},
		Config: tcqr.Config{Engine: tcqr.EngineBF16, Panel: tcqr.PanelHouseholder,
			Cutoff: 64, ReOrthogonalize: true, DisableColumnScaling: true, OnHazard: tcqr.HazardFallback},
	}
}

// goldenSpillChain is the series testdata/entry_v6.tcqs logs: the golden
// entry at epoch 7, an append of two rows (epoch 8, no scales, not
// reorthogonalized) and a downdate of four (epoch 9, scales again), each
// update's R written out by formula too.
func goldenSpillChain() []*Entry {
	e7 := goldenSpillEntry()
	n := e7.A.Cols
	v := tcqr.NewMatrix(2, n)
	for j := 0; j < n; j++ {
		v.Set(0, j, float64(j)-1.5)
		v.Set(1, j, 1/float64(j+7))
	}
	v.Set(1, 0, math.Copysign(0, -1))
	factor := func(seed float32, reortho bool, scales []float32) *tcqr.Factorization {
		r := tcqr.NewMatrix32(n, n)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				r.Set(i, j, seed+float32(i-j)/7)
			}
		}
		r.Set(0, 1, math.Float32frombits(0x80000001)) // negative subnormal
		return &tcqr.Factorization{R: r, Reorthogonalized: reortho, ColumnScales: scales}
	}
	e8 := updated(e7, 0, v, factor(2, false, nil))
	e9 := updated(e8, 4, nil, factor(-3, true, []float32{4, 0.25, 8}))
	return []*Entry{e7, e8, e9}
}

// TestSpillGoldenV6: the committed log — a base record and two delta
// records — decodes to the expected bits at its last epoch, and the expected
// series encodes to the committed bytes, so the v6 layout cannot drift
// without this file changing (a layout change is a new spillVersion and a new
// golden). No single corrupted byte of it decodes as the whole log: one in
// the base fails the file, one in a delta record makes that record the tail
// and leaves the series at the epoch before it, bit for bit.
func TestSpillGoldenV6(t *testing.T) {
	const path = "testdata/entry_v6.tcqs"
	chain := goldenSpillChain()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeWhole(file)
	if err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if diff := sameEntryBits(got, chain[2]); diff != "" {
		t.Fatalf("%s: %s", path, diff)
	}
	if enc := spillLogBytes(t, chain...); !bytes.Equal(enc, file) {
		t.Fatalf("the golden series encodes to %d bytes that differ from %s (%d bytes)", len(enc), path, len(file))
	}
	// Where each record starts: the base at 0, delta d at ends[d-1].
	ends := []int{len(spillLogBytes(t, chain[0])), len(spillLogBytes(t, chain[:2]...)), len(file)}
	for i := range file {
		bad := bytes.Clone(file)
		bad[i] ^= 0x10
		e, good, _, err := decodeSpillLog(bad)
		switch d := sort.SearchInts(ends, i+1); {
		case d == 0 && err == nil:
			t.Errorf("byte %d of the base corrupted, the log still decodes", i)
		case d > 0 && (err != nil || good != int64(ends[d-1])):
			t.Errorf("byte %d of record %d corrupted: good prefix %d (%v), want %d", i, d, good, err, ends[d-1])
		case d > 0:
			if diff := sameEntryBits(e, chain[d-1]); diff != "" {
				t.Errorf("byte %d of record %d corrupted: %s", i, d, diff)
			}
		}
	}
}

// TestSpillV5FileQuarantined: a TCQS v5 file — one whole entry per epoch,
// which an older daemon wrote — is quarantined at rewarm, not read as a log.
func TestSpillV5FileQuarantined(t *testing.T) {
	file, err := os.ReadFile("testdata/entry_v5.tcqs")
	if err != nil {
		t.Fatal(err)
	}
	if file[4] != 5 {
		t.Fatalf("entry_v5.tcqs is TCQS v%d, want v5", file[4])
	}
	e := goldenSpillEntry()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, spillFileName(baseKey(e.Key))), file, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, CacheDir: dir})
	defer s.Close()
	if st := s.spill.Stats(); st.Rewarmed != 0 || st.Quarantined != 1 || st.Files != 0 {
		t.Fatalf("rewarm stats %+v, want 0 rewarmed, 1 quarantined", st)
	}
	if _, ok := s.cache.Get(baseKey(e.Key)); ok {
		t.Fatal("a v5 file rewarmed")
	}
}

// v4SpillFile is a TCQS v4 file an earlier build's daemon wrote for an 8x3
// factorize under {"engine":"tc-ec","panel":"mgs","cutoff":2,
// "reorthogonalize":true,"on_hazard":"fallback"}: A, Q and R, its meta's
// config carrying the retired panel-engine flag.
const v4SpillFile = "testdata/entry_v4_panelflag.tcqs"

// TestSpillV4FileQuarantinedKeyRefactorizes: v5 dropped Q from the layout
// and there is no legacy reader, so a server started on a directory holding
// a v4 file quarantines it and rewarms nothing; the same factorize request
// then refactorizes on demand, under the key the file was stored as, and
// the factor it caches is tcqr.Factorize's.
func TestSpillV4FileQuarantinedKeyRefactorizes(t *testing.T) {
	const key = "m91ffb5cf2cf1084e-e10-p3-c2-r10-h1"
	file, err := os.ReadFile(v4SpillFile)
	if err != nil {
		t.Fatal(err)
	}
	if file[4] != 4 {
		t.Fatalf("%s is TCQS v%d, want v4", v4SpillFile, file[4])
	}
	var meta spillMeta
	if err := json.Unmarshal(file[spillHeaderLen:spillHeaderLen+binary.LittleEndian.Uint64(file[8:16])], &meta); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, spillFileName(key)), file, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, CacheDir: dir})
	defer s.Close()
	if st := s.spill.Stats(); st.Rewarmed != 0 || st.Quarantined != 1 {
		t.Fatalf("rewarm stats %+v, want 0 rewarmed, 1 quarantined", st)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Fatalf("key %s rewarmed from a v4 file", key)
	}
	// The file's A: its body opens with the meta's rows×cols float64s.
	a := tcqr.NewMatrix(meta.Rows, meta.Cols)
	getFloat64s(a.Data, file[spillHeaderLen+pad8(int64(binary.LittleEndian.Uint64(file[8:16]))):])
	var fr factorizeReply
	code, _ := post(t, s.Handler(), "/v1/factorize", map[string]any{
		"matrix": wireMat(a.Rows, a.Cols, colMajorData(a)),
		"config": map[string]any{"engine": "tc-ec", "panel": "mgs", "cutoff": 2, "reorthogonalize": true, "on_hazard": "fallback"},
	}, &fr)
	if code != 200 || fr.Key != key || fr.Cached {
		t.Fatalf("factorize of the file's matrix: %d key %q cached=%v, want 200 %s refactorized", code, fr.Key, fr.Cached, key)
	}
	e, ok := s.cache.Get(key)
	if !ok {
		t.Fatalf("key %s not cached after the factorize", key)
	}
	want, err := tcqr.Factorize(tcqr.ToFloat32(a), meta.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(factorBits(e.F), factorBits(want)) || e.F.Q != nil {
		t.Error("the refactorized entry is not tcqr.Factorize's R without Q")
	}
}

// TestSpillRetiredPanelQuarantined: a file whose meta names the retired
// panel 2 (Cholesky QR, written by an older daemon) is quarantined at rewarm,
// not served under a Config that Factorize would now run on another panel.
// (MGS kept its number 3: TestSpillV4FileQuarantinedKeyRefactorizes still
// resolves an MGS matrix under its p3 key.)
func TestSpillRetiredPanelQuarantined(t *testing.T) {
	e := goldenSpillEntry()
	e.Key = "mretired-e00-p2-c0-r00-h0"
	e.Config.Panel = 2
	file := spillBytes(t, e)
	if _, err := decodeWhole(file); err == nil {
		t.Fatal("a spill file of panel 2 decodes")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, spillFileName(e.Key)), file, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, CacheDir: dir})
	defer s.Close()
	if st := s.spill.Stats(); st.Rewarmed != 0 || st.Quarantined != 1 {
		t.Fatalf("rewarm stats %+v, want 0 rewarmed, 1 quarantined", st)
	}
	if _, ok := s.cache.Get(e.Key); ok {
		t.Error("the retired panel's entry is in the cache")
	}
	if _, err := os.Stat(filepath.Join(dir, spillFileName(e.Key)+spillQuarExt)); err != nil {
		t.Errorf("no quarantined file: %v", err)
	}
}

// resealSpill recomputes the trailing checksum over data in place, so a
// mutated file reaches the checks behind the checksum.
func resealSpill(data []byte) {
	if len(data) >= 4 {
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	}
}

// FuzzSpillDecode: arbitrary bytes — as they are, and with a trailing
// checksum that vouches for them — never panic decodeSpillLog and never make
// it allocate more than a small multiple of what it was given, and whatever
// it accepts survives encode → decode bit for bit.
func FuzzSpillDecode(f *testing.F) {
	plain := makeEntry(f, 3, 6, 2, "mfuzz", 0)
	scaled := goldenSpillEntry()
	for _, e := range []*Entry{plain, scaled} {
		valid := spillBytes(f, e)
		f.Add(valid)
		metaLen := int(binary.LittleEndian.Uint64(valid[8:16]))
		bodyAt := spillHeaderLen + int(pad8(int64(metaLen)))
		aEnd := bodyAt + 8*e.A.Rows*e.A.Cols
		rEnd := aEnd + 4*e.A.Cols*e.A.Cols
		// Truncations at every field boundary, and inside R.
		for _, cut := range []int{0, 4, 8, 16, spillHeaderLen, spillHeaderLen + metaLen, bodyAt, aEnd, aEnd + 4, rEnd, len(valid) - 4, len(valid) - 1} {
			f.Add(valid[:cut])
			torn := bytes.Clone(valid[:cut])
			resealSpill(torn)
			f.Add(torn)
		}
		// A body length off by one, either way, under a valid checksum.
		for _, d := range []uint64{1, ^uint64(0)} {
			off := bytes.Clone(valid)
			binary.LittleEndian.PutUint64(off[16:24], binary.LittleEndian.Uint64(off[16:24])+d)
			resealSpill(off)
			f.Add(off)
		}
	}
	// A meta declaring shapes far larger than the body, including a pair
	// whose product overflows int64.
	for _, meta := range []string{
		`{"key":"k","rows":1000000,"cols":1000000,"config":{}}`,
		`{"key":"k","rows":4294967296,"cols":4294967296,"config":{}}`,
		`{"key":"k","rows":9223372036854775807,"cols":1,"has_scales":true,"config":{}}`,
	} {
		huge := make([]byte, spillHeaderLen, 256)
		copy(huge, spillMagic)
		huge[4] = spillVersion
		binary.LittleEndian.PutUint64(huge[8:16], uint64(len(meta)))
		binary.LittleEndian.PutUint64(huge[16:24], 64)
		huge = append(huge, meta...)
		huge = append(huge, make([]byte, int(pad8(int64(len(meta))))-len(meta)+64+4)...)
		resealSpill(huge)
		f.Add(huge)
	}
	// Log-shaped inputs: the golden log whole, its last record torn at its
	// header and inside it, a bad record checksum, and under a checksum that
	// vouches for them a record naming a wrong parent, one appending more rows
	// than the file holds and one removing more than A can spare; and a
	// record after compaction (a fresh base at epoch 8, then epoch 9's delta).
	chain := goldenSpillChain()
	log := spillLogBytes(f, chain...)
	last := len(spillLogBytes(f, chain[:2]...))
	f.Add(log)
	for _, cut := range []int{last + 1, last + spillDeltaHeaderLen, len(log) - 4, len(log) - 1} {
		f.Add(log[:cut])
	}
	badSum := bytes.Clone(log)
	badSum[len(badSum)-1] ^= 1
	f.Add(badSum)
	for _, field := range []struct {
		at int
		v  uint64
	}{{16, 7}, {24, 1 << 40}, {32, 6}} {
		bad := bytes.Clone(log)
		binary.LittleEndian.PutUint64(bad[last+field.at:], field.v)
		resealSpill(bad[last:])
		f.Add(bad)
	}
	f.Add(spillLogBytes(f, chain[1:]...))
	v4, err := os.ReadFile(v4SpillFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4)

	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := bytes.Clone(data)
		resealSpill(sealed)
		for _, file := range [][]byte{data, sealed} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e, good, _, err := decodeSpillLog(file)
			runtime.ReadMemStats(&after)
			// The matrices are at most the records; the meta's JSON decode,
			// the row-block list and the fuzz worker's own goroutines account
			// for the constant.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(file))+1<<20 {
				t.Fatalf("decoding %d bytes allocated %d", len(file), grew)
			}
			if err != nil {
				continue
			}
			if good > int64(len(file)) {
				t.Fatalf("%d good bytes of %d", good, len(file))
			}
			again, err := decodeWhole(spillBytes(t, e))
			if err != nil {
				t.Fatalf("an accepted file does not survive re-encoding: %v", err)
			}
			if diff := sameEntryBits(again, e); diff != "" {
				t.Fatalf("decode → encode → decode: %s", diff)
			}
		}
	})
}

// TestSpillWriteAllocatesAChunkNotAnEntry: the tier's writer streams every
// record through the one buffer it was made with, so a base write allocates
// its meta, file handle and log record, a delta write less, and neither a
// chunk nor anything that grows with the entry.
func TestSpillWriteAllocatesAChunkNotAnEntry(t *testing.T) {
	sp, err := NewSpillTier(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	const runs = 8
	perWrite := func(ops []spillOp) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, op := range ops {
			sp.write(op)
		}
		runtime.ReadMemStats(&after)
		if st := sp.Stats(); st.WriteErrors != 0 {
			t.Fatalf("spill writes failed: %+v", st)
		}
		return (after.TotalAlloc - before.TotalAlloc) / uint64(len(ops))
	}
	// bases publishes runs copies of e as fresh series.
	bases := func(e *Entry) []spillOp {
		ops := make([]spillOp, runs)
		for i := range ops {
			c := *e
			c.Key = fmt.Sprintf("%s-%d", e.Key, i)
			ops[i] = spillOp{entry: &c}
		}
		return ops
	}
	small := perWrite(bases(makeEntry(t, 4, 256, 16, "msmall", 0)))
	bigEntry := makeEntry(t, 5, 2048, 128, "mbig", 0)
	big := perWrite(bases(bigEntry))
	// Then runs updates of the last series, sixteen rows apiece.
	prev := &Entry{Key: bigEntry.Key + fmt.Sprintf("-%d", runs-1), A: bigEntry.A, F: bigEntry.F}
	updates := make([]spillOp, runs)
	for i := range updates {
		next := updated(prev, 0, tcqr.FromColMajor(16, 128, testMatrix(uint64(60+i), 16, 128, 1)), bigEntry.F)
		updates[i] = spillOp{entry: next, update: true, parent: prev.Epoch}
		prev = next
	}
	delta := perWrite(updates)
	if st := sp.Stats(); st.Files != 2*runs || st.Writes != 3*runs {
		t.Fatalf("tier after the writes: %+v, want %d logs and the updates as deltas", st, 2*runs)
	}
	t.Logf("bytes allocated per write: 2048x128 base %d, 256x16 base %d, 16-row delta %d", big, small, delta)
	if big > 4<<10 || delta > 1<<10 {
		t.Errorf("a 2048x128 base write allocates %d bytes, a delta %d: want under 4 KiB and 1 KiB, no chunk", big, delta)
	}
	if big > small+1<<10 {
		t.Errorf("a 2048x128 write allocates %d bytes, a 256x16 write %d: the writer's allocation grows with the entry", big, small)
	}
}

// fullAfter accepts room bytes, then refuses every byte with err: a disk that
// fills (ENOSPC, EDQUOT) or fails (EIO) under the writer.
type fullAfter struct {
	room int
	err  error
}

func (w *fullAfter) Write(p []byte) (int, error) {
	if len(p) <= w.room {
		w.room -= len(p)
		return len(p), nil
	}
	n := w.room
	w.room = 0
	return n, w.err
}

// within fails the test if f has not returned in ten seconds: a writer that
// retries a failed flush spins forever, and must fail here, not at the suite's
// timeout.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s has not returned after 10 s", what)
	}
}

// TestSpillEncodeReturnsTheWriteError: wherever the file stops accepting
// bytes — before the first, inside A, R or the scales, or at the checksum, of
// a base or a delta record — the encoder returns that error instead of
// retrying, and its next record is written whole.
func TestSpillEncodeReturnsTheWriteError(t *testing.T) {
	e := makeEntry(t, 6, 2048, 24, "mfull", 0) // 393 KB of A: several chunks a section
	e.F.ColumnScales = make([]float32, 24)
	total := len(spillBytes(t, e))
	aEnd := total - 4 - 4*24 - 4*24*24
	disk := errors.New("no space left on device")
	enc := newSpillEncoder() // one encoder throughout: an error must not stick to it
	for _, room := range []int{0, 10, spillChunk - 1, spillChunk, aEnd - 3, aEnd + 5, total - 4 - 4*24 - 1, total - 4 - 2, total - 4, total - 1} {
		within(t, "the base encoder", func() {
			n, err := enc.base(&fullAfter{room: room, err: disk}, e)
			if !errors.Is(err, disk) || n != 0 {
				t.Errorf("a writer full after %d of %d bytes: the base encoder returned (%d, %v), want (0, %v)", room, total, n, err, disk)
			}
		})
	}
	next := updated(e, 0, tcqr.FromColMajor(3000, 24, testMatrix(8, 3000, 24, 1)), e.F) // 576 KB appended
	deltaLen := int(spillDeltaLen(3000, 24, true))
	for _, room := range []int{0, spillDeltaHeaderLen, spillChunk + 1, deltaLen - 5, deltaLen - 1} {
		within(t, "the delta encoder", func() {
			if n, err := enc.delta(&fullAfter{room: room, err: disk}, next, e.Epoch, e.A.Rows); !errors.Is(err, disk) || n != 0 {
				t.Errorf("a writer full after %d of a %d-byte delta: (%d, %v), want (0, %v)", room, deltaLen, n, err, disk)
			}
		})
	}
	within(t, "the encoders", func() {
		if n, err := enc.base(&fullAfter{room: total}, e); err != nil || n != int64(total) {
			t.Errorf("a writer with room for all %d bytes: (%d, %v)", total, n, err)
		}
		if n, err := enc.delta(&fullAfter{room: deltaLen}, next, e.Epoch, e.A.Rows); err != nil || n != int64(deltaLen) {
			t.Errorf("a writer with room for all %d bytes of the delta: (%d, %v)", deltaLen, n, err)
		}
	})
}

// TestSpillWriteOnFullDiskCountsAnErrorAndLeavesNoTmp: the .tmp path is a
// symlink to /dev/full, so the open succeeds and every write is refused with
// ENOSPC and zero bytes taken. The write must return, count one write error,
// remove the tmp and leave the tier — queue, Flush, Close — working.
func TestSpillWriteOnFullDiskCountsAnErrorAndLeavesNoTmp(t *testing.T) {
	if f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skip("no /dev/full here:", err)
	} else {
		_, werr := f.Write([]byte{0})
		f.Close()
		if !errors.Is(werr, syscall.ENOSPC) {
			t.Skip("/dev/full does not refuse writes here:", werr)
		}
	}
	dir := t.TempDir()
	sp, err := NewSpillTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := makeEntry(t, 7, 2048, 24, "mfull", 0)
	tmp := filepath.Join(dir, spillFileName(e.Key)+".tmp")
	if err := os.Symlink("/dev/full", tmp); err != nil {
		t.Skip("cannot symlink:", err)
	}
	within(t, "a spill write to a full disk", func() {
		sp.Enqueue(e)
		sp.Flush()
	})
	if st := sp.Stats(); st.WriteErrors != 1 || st.Writes != 0 || st.Files != 0 || st.BytesOnDisk != 0 {
		t.Errorf("after one refused write: %+v, want write_errors 1 and nothing on disk", st)
	}
	if left := spillFiles(t, dir, "*"); len(left) != 0 {
		t.Errorf("a refused write left %v behind", left)
	}
	// The disk has room again (the symlink went with the tmp): the same entry lands.
	within(t, "the next spill write and Close", func() {
		sp.Enqueue(e)
		sp.Flush()
		sp.Close()
	})
	if st := sp.Stats(); st.WriteErrors != 1 || st.Writes != 1 || st.Files != 1 {
		t.Errorf("after the retry: %+v, want writes 1", st)
	}
}
