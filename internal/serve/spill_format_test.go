package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"tcqr"
)

// goldenSpillEntry is the entry testdata/entry_v4.tcqs holds: written out by
// formula, not factorized, so the file pins the layout and nothing else.
// Every field of the meta is off its zero value and each section holds a bit
// pattern only a bitwise copy preserves.
func goldenSpillEntry() *Entry {
	const m, n = 5, 3
	a := tcqr.NewMatrix(m, n)
	q := tcqr.NewMatrix32(m, n)
	r := tcqr.NewMatrix32(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, float64(i+1)/float64(j+3))
			q.Set(i, j, float32(i-j)/7)
		}
		for i := 0; i <= j; i++ {
			r.Set(i, j, float32(i+2*j+1)/3)
		}
	}
	a.Set(0, 1, math.Copysign(0, -1))
	a.Set(4, 2, math.Float64frombits(0x7ff0000000000001)) // signalling NaN
	q.Set(1, 1, math.Float32frombits(1))                  // smallest subnormal
	r.Set(0, 2, math.Float32frombits(0x7fa00001))         // signalling NaN
	return &Entry{
		Key:   "mgolden-e20-p1-c64-r11-h1@7",
		Epoch: 7,
		A:     a,
		F: &tcqr.Factorization{Q: q, R: r, Reorthogonalized: true,
			ColumnScales: []float32{0.5, 2, 1024}},
		Config: tcqr.Config{Engine: tcqr.EngineBF16, Panel: tcqr.PanelHouseholder,
			Cutoff: 64, ReOrthogonalize: true, DisableColumnScaling: true, OnHazard: tcqr.HazardFallback},
	}
}

// TestSpillGoldenV4: the committed file decodes to the expected bits and the
// expected entry encodes to the committed bytes, so the v4 layout cannot
// drift without this file changing (a layout change is a new spillVersion and
// a new golden); and no single corrupted byte of it — header, meta, padding,
// body or checksum — decodes.
func TestSpillGoldenV4(t *testing.T) {
	const path = "testdata/entry_v4.tcqs"
	want := goldenSpillEntry()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSpillEntry(file)
	if err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if diff := sameEntryBits(got, want); diff != "" {
		t.Fatalf("%s: %s", path, diff)
	}
	if enc := spillBytes(t, want); !bytes.Equal(enc, file) {
		t.Fatalf("the golden entry encodes to %d bytes that differ from %s (%d bytes)", len(enc), path, len(file))
	}
	for i := range file {
		bad := bytes.Clone(file)
		bad[i] ^= 0x10
		if _, err := decodeSpillEntry(bad); err == nil {
			t.Errorf("byte %d of %d corrupted, still decodes", i, len(file))
		}
	}
}

// panelFlagSpillFile is a spill file an earlier build's daemon wrote for an
// 8x3 factorize under {"engine":"tc-ec","panel":"mgs","cutoff":2,
// "reorthogonalize":true,"on_hazard":"fallback"}. Its meta's config carries
// the panel-engine flag, false, as every file of those builds does; today's
// Config no longer has the field.
const panelFlagSpillFile = "testdata/entry_v4_panelflag.tcqs"

// TestSpillFileWithPanelFlagRewarms: a server started on a directory holding
// that file rewarms it under its stored key, holding the factor
// tcqr.Factorize computes today bit for bit, and the same factorize request
// resolves to that key as a cache hit.
func TestSpillFileWithPanelFlagRewarms(t *testing.T) {
	const key = "m91ffb5cf2cf1084e-e10-p3-c2-r10-h1"
	file, err := os.ReadFile(panelFlagSpillFile)
	if err != nil {
		t.Fatal(err)
	}
	var meta struct{ Config map[string]json.RawMessage }
	if err := json.Unmarshal(file[spillHeaderLen:spillHeaderLen+binary.LittleEndian.Uint64(file[8:16])], &meta); err != nil {
		t.Fatal(err)
	}
	today, err := json.Marshal(tcqr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var retired []string
	for name, v := range meta.Config {
		if !bytes.Contains(today, []byte(`"`+name+`":`)) && string(v) == "false" {
			retired = append(retired, name)
		}
	}
	if len(retired) != 1 || len(meta.Config) != bytes.Count(today, []byte(`":`))+1 {
		t.Fatalf("%s: config %v, want today's fields plus one retired false flag", panelFlagSpillFile, meta.Config)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, spillFileName(key)), file, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, CacheDir: dir})
	defer s.Close()
	if st := s.spill.Stats(); st.Rewarmed != 1 || st.Quarantined != 0 {
		t.Fatalf("rewarm stats %+v, want 1 rewarmed, 0 quarantined", st)
	}
	e, ok := s.cache.Get(key)
	if !ok {
		t.Fatalf("key %s not rewarmed", key)
	}
	want, err := tcqr.Factorize(tcqr.ToFloat32(e.A), e.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(factorBits(e.F), factorBits(want)) || e.F.Reorthogonalized != want.Reorthogonalized {
		t.Error("the rewarmed factor differs from tcqr.Factorize under the stored config")
	}
	var fr factorizeReply
	code, _ := post(t, s.Handler(), "/v1/factorize", map[string]any{
		"matrix": wireMat(e.A.Rows, e.A.Cols, colMajorData(e.A)),
		"config": map[string]any{"engine": "tc-ec", "panel": "mgs", "cutoff": 2, "reorthogonalize": true, "on_hazard": "fallback"},
	}, &fr)
	if code != 200 || fr.Key != key || !fr.Cached {
		t.Errorf("factorize of the file's matrix: %d key %q cached=%v, want 200 %s cached", code, fr.Key, fr.Cached, key)
	}
}

// TestSpillRetiredPanelQuarantined: a v4 file whose meta names the retired
// panel 2 (Cholesky QR, written by an older daemon) is quarantined at rewarm,
// not served under a Config that Factorize would now run on another panel.
// (MGS kept its number 3: TestSpillFileWithPanelFlagRewarms still resolves
// an MGS file under its p3 key.)
func TestSpillRetiredPanelQuarantined(t *testing.T) {
	e := goldenSpillEntry()
	e.Key = "mretired-e00-p2-c0-r00-h0"
	e.Config.Panel = 2
	file := spillBytes(t, e)
	if _, err := decodeSpillEntry(file); err == nil {
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

// FuzzSpillDecode: arbitrary bytes — as they are, and with a checksum that
// vouches for them — never panic decodeSpillEntry and never make it allocate
// more than a small multiple of what it was given, and whatever it accepts
// survives encode → decode bit for bit.
func FuzzSpillDecode(f *testing.F) {
	plain := makeEntry(f, 3, 6, 2, "mfuzz", 0)
	scaled := goldenSpillEntry()
	for _, e := range []*Entry{plain, scaled} {
		valid := spillBytes(f, e)
		f.Add(valid)
		metaLen := int(binary.LittleEndian.Uint64(valid[8:16]))
		bodyAt := spillHeaderLen + int(pad8(int64(metaLen)))
		aEnd := bodyAt + 8*e.A.Rows*e.A.Cols
		qEnd := aEnd + 4*e.A.Rows*e.A.Cols
		rEnd := qEnd + 4*e.A.Cols*e.A.Cols
		// Truncations at every field boundary.
		for _, cut := range []int{0, 4, 8, 16, spillHeaderLen, spillHeaderLen + metaLen, bodyAt, aEnd, qEnd, rEnd, len(valid) - 4, len(valid) - 1} {
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
	panelFlag, err := os.ReadFile(panelFlagSpillFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(panelFlag)

	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := bytes.Clone(data)
		resealSpill(sealed)
		for _, file := range [][]byte{data, sealed} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e, err := decodeSpillEntry(file)
			runtime.ReadMemStats(&after)
			// The matrices are at most the body; the meta's JSON decode and
			// the fuzz worker's own goroutines account for the constant.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(file))+1<<20 {
				t.Fatalf("decoding %d bytes allocated %d", len(file), grew)
			}
			if err != nil {
				continue
			}
			again, err := decodeSpillEntry(spillBytes(t, e))
			if err != nil {
				t.Fatalf("an accepted file does not survive re-encoding: %v", err)
			}
			if diff := sameEntryBits(again, e); diff != "" {
				t.Fatalf("decode → encode → decode: %s", diff)
			}
		}
	})
}

// TestSpillWriteAllocatesAChunkNotAnEntry: what one write allocates is the
// meta and the fixed chunk buffer, whatever the entry's size.
func TestSpillWriteAllocatesAChunkNotAnEntry(t *testing.T) {
	sp, err := NewSpillTier(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	perWrite := func(e *Entry) uint64 {
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			sp.write(e)
		}
		runtime.ReadMemStats(&after)
		if st := sp.Stats(); st.WriteErrors != 0 {
			t.Fatalf("spill writes failed: %+v", st)
		}
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small := perWrite(makeEntry(t, 4, 256, 16, "msmall", 0))
	big := perWrite(makeEntry(t, 5, 2048, 128, "mbig", 0))
	t.Logf("bytes allocated per write: 2048x128 %d, 256x16 %d", big, small)
	if big > 256<<10 {
		t.Errorf("a 2048x128 write allocates %d bytes, want under 256 KiB (the file is 3.2 MB)", big)
	}
	if big > small+4<<10 {
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
// bytes — before the first, inside A, Q, R or the scales, or at the checksum —
// encodeSpillEntry returns that error instead of retrying.
func TestSpillEncodeReturnsTheWriteError(t *testing.T) {
	e := makeEntry(t, 6, 2048, 24, "mfull", 0) // 393 KB of A: several chunks a section
	e.F.ColumnScales = make([]float32, 24)
	total := len(spillBytes(t, e))
	aEnd := total - 4 - 4*24 - 4*24*24 - 4*2048*24
	disk := errors.New("no space left on device")
	for _, room := range []int{0, 10, spillChunk - 1, spillChunk, aEnd - 3, aEnd + 5, total - 4 - 4*24 - 1, total - 4 - 2, total - 4, total - 1} {
		within(t, "encodeSpillEntry", func() {
			n, err := encodeSpillEntry(&fullAfter{room: room, err: disk}, e)
			if !errors.Is(err, disk) || n != 0 {
				t.Errorf("a writer full after %d of %d bytes: encodeSpillEntry returned (%d, %v), want (0, %v)", room, total, n, err, disk)
			}
		})
	}
	within(t, "encodeSpillEntry", func() {
		if n, err := encodeSpillEntry(&fullAfter{room: total}, e); err != nil || n != int64(total) {
			t.Errorf("a writer with room for all %d bytes: (%d, %v)", total, n, err)
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
