package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tcqr"
	"tcqr/internal/faultinject"
)

// The spill tier persists published cache entries under -cache-dir so a
// bounced daemon rewarms its factor cache from disk instead of inviting a
// factorize stampede. Writes are behind the serving path: publication
// (initial factorize or update epoch) enqueues the entry to a single writer
// goroutine; eviction enqueues a removal. The request path never waits on
// disk.
//
// Invariant: a series' newest durable epoch is deleted only after a newer
// epoch's rename succeeded. Retiring epoch N therefore queues nothing; the
// writer deletes N's file once N+1's is in place, so a write that is shed,
// fails, or is cut short by a crash leaves the series at its last durable
// epoch instead of with no file at all. A crash between that rename and the
// delete leaves both; rewarm adopts the newer and deletes the other.
//
// One entry is one file, <dir>/<n>.tcqs, little-endian throughout:
//
//	magic "TCQS" | version u8 | reserved u8×3 | meta length u64 |
//	body length u64 | JSON spillMeta, zero-padded to 8 |
//	A float64[rows·cols] | R float32[cols·cols] |
//	column scales float32[cols] if has_scales | crc32 (IEEE) u32
//
// The matrices are column-major at the width they have in memory, every
// shape comes from the meta, and the checksum covers every byte before it.
// This file owns the layout: encodeSpillEntry and decodeSpillEntry are its
// only writer and reader. Files are written to a .tmp sibling and atomically
// renamed into place, so a crash mid-write leaves a tmp orphan (swept at
// rewarm), never a half-written .tcqs — but a power loss after rename can
// still leave a torn file (no fsync), which is why every load is checksummed
// and torn files are quarantined, never served.
const (
	spillMagic = "TCQS"
	// There is no legacy reader: rewarm quarantines a file of any other
	// version and the factor cache refactorizes on demand. v1 spelled the
	// engine as booleans, v2 held a retired second kernel's factors under
	// keys that now denote RGSQRF factors, v3 wrapped a wirefmt frame of
	// float64 sections, v4 held Q between A and R.
	spillVersion   = 5
	spillHeaderLen = 24
	spillExt       = ".tcqs"
	spillQuarExt   = ".quarantine"
	// spillChunk is the writer's one buffer: bytes collect in it and reach
	// the file and the running checksum a chunk at a time.
	spillChunk = 64 << 10
)

// spillMeta is the JSON part of a spill file. The meta — not the file
// name — is authoritative for the entry's identity and for every shape.
type spillMeta struct {
	Key              string      `json:"key"`
	Epoch            uint64      `json:"epoch"`
	Rows             int         `json:"rows"`
	Cols             int         `json:"cols"`
	Reorthogonalized bool        `json:"reorthogonalized,omitempty"`
	HasScales        bool        `json:"has_scales,omitempty"`
	Config           tcqr.Config `json:"config"`
}

// SpillStats is a snapshot of the spill tier counters.
type SpillStats struct {
	// Writes counts entries durably spilled (tmp written, renamed).
	Writes int64 `json:"writes"`
	// WriteErrors counts failed spill attempts (the entry stays cache-only).
	WriteErrors int64 `json:"write_errors"`
	// Dropped counts enqueue attempts shed because the write-behind queue
	// was full (write-behind never blocks the serving path).
	Dropped int64 `json:"dropped"`
	// Removes counts files deleted because their entry was evicted, or
	// superseded by a durable newer epoch.
	Removes int64 `json:"removes"`
	// Evictions counts files deleted to keep the tier under -spill-max-bytes.
	Evictions int64 `json:"evictions"`
	// Loads / LoadErrors / Quarantined / Rewarmed describe the restart
	// rewarm pass: files read, files that failed to read, corrupt files set
	// aside as <name>.quarantine, and entries handed to the cache.
	Loads       int64 `json:"loads"`
	LoadErrors  int64 `json:"load_errors"`
	Quarantined int64 `json:"quarantined"`
	Rewarmed    int64 `json:"rewarmed"`
	// Files / BytesOnDisk gauge the tier's current footprint.
	Files       int   `json:"files"`
	BytesOnDisk int64 `json:"bytes_on_disk"`
}

// spillOp is one unit of write-behind work.
type spillOp struct {
	entry     *Entry        // write this entry (nil for remove/flush)
	removeKey string        // delete this key's file
	flush     chan struct{} // closed once every prior op has been processed
}

// spillFile tracks one on-disk file for budget accounting.
type spillFile struct {
	name  string
	size  int64
	seq   int64 // insertion order; lowest evicts first under the byte budget
	epoch uint64
}

// SpillTier is the write-behind disk tier behind a FactorCache.
type SpillTier struct {
	dir      string
	maxBytes int64

	queue chan spillOp
	stop  chan struct{}
	wg    sync.WaitGroup

	mu          sync.Mutex
	files       map[string]spillFile // key -> file
	seq         int64
	bytesOnDisk int64
	writes      int64
	writeErrs   int64
	dropped     int64
	removes     int64
	evictions   int64
	loads       int64
	loadErrs    int64
	quarantined int64
	rewarmed    int64
}

// NewSpillTier opens (creating if needed) the spill directory and starts
// the write-behind worker. maxBytes bounds the on-disk footprint (0 =
// unbounded); the oldest files are deleted first when over.
func NewSpillTier(dir string, maxBytes int64) (*SpillTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	sp := &SpillTier{
		dir:      dir,
		maxBytes: maxBytes,
		queue:    make(chan spillOp, 64),
		stop:     make(chan struct{}),
		files:    make(map[string]spillFile),
	}
	sp.wg.Add(1)
	go sp.worker()
	return sp, nil
}

// Enqueue schedules e for spilling. Never blocks: a full queue sheds the
// write (counted in Dropped) rather than stalling publication.
func (sp *SpillTier) Enqueue(e *Entry) {
	select {
	case sp.queue <- spillOp{entry: e}:
	default:
		sp.mu.Lock()
		sp.dropped++
		sp.mu.Unlock()
	}
}

// Remove schedules deletion of key's spill file (entry evicted, or declined
// at rewarm). Called under the cache lock, so it must not touch the disk
// itself.
func (sp *SpillTier) Remove(key string) {
	select {
	case sp.queue <- spillOp{removeKey: key}:
	default:
		sp.mu.Lock()
		sp.dropped++
		sp.mu.Unlock()
	}
}

// Flush blocks until every op enqueued before it has been processed (tests
// and drains use it; the serving path never does).
func (sp *SpillTier) Flush() {
	done := make(chan struct{})
	select {
	case sp.queue <- spillOp{flush: done}:
		<-done
	case <-sp.stop:
	}
}

// Close stops the worker after draining already-queued ops.
func (sp *SpillTier) Close() {
	select {
	case <-sp.stop:
		return
	default:
	}
	close(sp.stop)
	sp.wg.Wait()
}

// Stats returns a snapshot of the spill counters.
func (sp *SpillTier) Stats() SpillStats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return SpillStats{
		Writes:      sp.writes,
		WriteErrors: sp.writeErrs,
		Dropped:     sp.dropped,
		Removes:     sp.removes,
		Evictions:   sp.evictions,
		Loads:       sp.loads,
		LoadErrors:  sp.loadErrs,
		Quarantined: sp.quarantined,
		Rewarmed:    sp.rewarmed,
		Files:       len(sp.files),
		BytesOnDisk: sp.bytesOnDisk,
	}
}

func (sp *SpillTier) worker() {
	defer sp.wg.Done()
	for {
		select {
		case op := <-sp.queue:
			sp.process(op)
		case <-sp.stop:
			for {
				select {
				case op := <-sp.queue:
					sp.process(op)
				default:
					return
				}
			}
		}
	}
}

func (sp *SpillTier) process(op spillOp) {
	switch {
	case op.flush != nil:
		close(op.flush)
	case op.removeKey != "":
		sp.mu.Lock()
		f, ok := sp.files[op.removeKey]
		if ok {
			delete(sp.files, op.removeKey)
			sp.bytesOnDisk -= f.size
			sp.removes++
		}
		sp.mu.Unlock()
		if ok {
			os.Remove(filepath.Join(sp.dir, f.name))
		}
	case op.entry != nil:
		sp.write(op.entry)
	}
}

// write streams one entry to its file, then enforces the byte budget.
func (sp *SpillTier) write(e *Entry) {
	final := filepath.Join(sp.dir, spillFileName(e.Key))
	tmp := final + ".tmp"
	var size int64
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		size, err = encodeSpillEntry(f, e)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		// Failpoint: models a crash (power loss after rename, before the
		// data blocks hit disk) by leaving a torn file at the final name —
		// exactly what the checksummed rewarm pass must quarantine.
		if err = faultinject.Fire(siteSpillWrite); err != nil {
			os.Truncate(tmp, size/2)
			os.Rename(tmp, final)
		} else {
			err = os.Rename(tmp, final)
		}
	}
	if err != nil {
		os.Remove(tmp) // no-op after the failpoint's rename
	}
	sp.mu.Lock()
	if err != nil {
		sp.writeErrs++
		sp.mu.Unlock()
		return
	}
	sp.writes++
	if old, ok := sp.files[e.Key]; ok {
		sp.bytesOnDisk -= old.size
	}
	sp.seq++
	sp.files[e.Key] = spillFile{name: spillFileName(e.Key), size: size, seq: sp.seq, epoch: e.Epoch}
	sp.bytesOnDisk += size
	// e is durable: only now do the older epochs of its series go.
	victims := make([]spillFile, 0, 2) // the usual one predecessor stays off the heap
	base := baseKey(e.Key)
	for k, f := range sp.files {
		if f.epoch < e.Epoch && baseKey(k) == base {
			delete(sp.files, k)
			sp.bytesOnDisk -= f.size
			sp.removes++
			victims = append(victims, f)
		}
	}
	victims = append(victims, sp.overBudgetLocked(e.Key)...)
	sp.mu.Unlock()
	for _, v := range victims {
		os.Remove(filepath.Join(sp.dir, v.name))
	}
}

// overBudgetLocked pops oldest files (never keep's own) until the tier fits
// the byte budget, returning the files to delete. sp.mu must be held.
func (sp *SpillTier) overBudgetLocked(keep string) []spillFile {
	if sp.maxBytes <= 0 {
		return nil
	}
	var victims []spillFile
	for sp.bytesOnDisk > sp.maxBytes {
		oldKey, oldSeq := "", int64(-1)
		for k, f := range sp.files {
			if k == keep {
				continue
			}
			if oldSeq < 0 || f.seq < oldSeq {
				oldKey, oldSeq = k, f.seq
			}
		}
		if oldSeq < 0 {
			return victims
		}
		f := sp.files[oldKey]
		delete(sp.files, oldKey)
		sp.bytesOnDisk -= f.size
		sp.evictions++
		victims = append(victims, f)
	}
	return victims
}

// Rewarm loads every checksum-valid spill file into entries ready for
// FactorCache.AdoptRewarmed, quarantines corrupt ones (renamed to
// <name>.quarantine so the next restart does not retry them), and sweeps
// tmp orphans. Runs synchronously at daemon startup, before serving.
// Entries are returned oldest-epoch-last so the cache adopts the newest
// epoch of each series as current; the caller Removes the ones it declines.
func (sp *SpillTier) Rewarm() []*Entry {
	names, err := os.ReadDir(sp.dir)
	if err != nil {
		return nil
	}
	var out []*Entry
	for _, de := range names {
		name := de.Name()
		path := filepath.Join(sp.dir, name)
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(path)
			continue
		}
		if !strings.HasSuffix(name, spillExt) {
			continue
		}
		sp.mu.Lock()
		sp.loads++
		sp.mu.Unlock()
		// Failpoint: a simulated read error skips the file without
		// quarantining it (the data may be fine; the next restart retries).
		if ferr := faultinject.Fire(siteSpillLoad); ferr != nil {
			sp.mu.Lock()
			sp.loadErrs++
			sp.mu.Unlock()
			continue
		}
		buf, err := os.ReadFile(path)
		var e *Entry
		if err == nil {
			e, err = decodeSpillEntry(buf)
		}
		if err != nil {
			sp.mu.Lock()
			sp.loadErrs++
			sp.quarantined++
			sp.mu.Unlock()
			os.Rename(path, path+spillQuarExt)
			continue
		}
		size := int64(len(buf))
		sp.mu.Lock()
		sp.seq++
		sp.files[e.Key] = spillFile{name: name, size: size, seq: sp.seq, epoch: e.Epoch}
		sp.bytesOnDisk += size
		sp.rewarmed++
		sp.mu.Unlock()
		out = append(out, e)
	}
	// Newest epoch of each series first, so AdoptRewarmed publishes it and
	// skips stale siblings.
	sort.Slice(out, func(i, j int) bool {
		bi, bj := baseKey(out[i].Key), baseKey(out[j].Key)
		if bi != bj {
			return bi < bj
		}
		return out[i].Epoch > out[j].Epoch
	})
	return out
}

// spillFileName maps a cache key to its file name. Keys are generated by
// CacheKey/versionedKey and contain only [0-9a-z@-] — safe as file names —
// but escape defensively anyway.
func spillFileName(key string) string {
	var b strings.Builder
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '@', r == '_':
			b.WriteRune(r)
		default:
			fmt.Fprintf(&b, "%%%02x", r)
		}
	}
	return b.String() + spillExt
}

// spillBodyLen is the byte length of the matrices of a rows×cols entry. The
// caller has bounded rows·cols and cols·cols, so the sum cannot overflow.
func spillBodyLen(rows, cols int64, hasScales bool) int64 {
	n := 8*rows*cols + 4*cols*cols
	if hasScales {
		n += 4 * cols
	}
	return n
}

// pad8 rounds n up to a multiple of 8.
func pad8(n int64) int64 { return (n + 7) &^ 7 }

// putFloats writes col a buffer's worth per Write: put converts a run of it
// into b, bw's own free space (the AvailableBuffer idiom). It stops at bw's
// first error, which bufio keeps for the encoder's Flush to return: a failed
// flush frees no room, so retrying would never end.
func putFloats[T float32 | float64](bw *bufio.Writer, col []T, size int, put func(b []byte, run []T)) {
	for len(col) > 0 {
		if bw.Available() < size && bw.Flush() != nil {
			return
		}
		b := bw.AvailableBuffer()
		k := min(len(col), cap(b)/size)
		put(b[:size*k], col[:k])
		if _, err := bw.Write(b[:size*k]); err != nil {
			return
		}
		col = col[k:]
	}
}

// putFloat64s and putFloat32s store run as little-endian bit patterns.
func putFloat64s(b []byte, run []float64) {
	for i, x := range run {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

func putFloat32s(b []byte, run []float32) {
	for i, x := range run {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
}

// encodeSpillEntry streams e's spill file to w and returns its length. What
// it allocates — the meta and one spillChunk buffer — does not grow with the
// entry. bufio.Writer keeps the first write error and returns it from Flush.
func encodeSpillEntry(w io.Writer, e *Entry) (int64, error) {
	a, r := e.A, e.F.R
	meta := spillMeta{
		Key:              e.Key,
		Epoch:            e.Epoch,
		Rows:             a.Rows,
		Cols:             a.Cols,
		Reorthogonalized: e.F.Reorthogonalized,
		HasScales:        len(e.F.ColumnScales) > 0,
		Config:           e.Config,
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return 0, err
	}
	metaLen := int64(len(mj))
	bodyLen := spillBodyLen(int64(a.Rows), int64(a.Cols), meta.HasScales)

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), spillChunk)
	var hdr [spillHeaderLen]byte
	copy(hdr[0:4], spillMagic)
	hdr[4] = spillVersion
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(metaLen))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(bodyLen))
	bw.Write(hdr[:])
	bw.Write(mj)
	var zero [8]byte
	bw.Write(zero[:pad8(metaLen)-metaLen])
	for j := 0; j < a.Cols; j++ {
		putFloats(bw, a.Col(j), 8, putFloat64s)
	}
	for j := 0; j < r.Cols; j++ {
		putFloats(bw, r.Col(j), 4, putFloat32s)
	}
	putFloats(bw, e.F.ColumnScales, 4, putFloat32s)
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return 0, err
	}
	return spillHeaderLen + pad8(metaLen) + bodyLen + 4, nil
}

// getFloat64s fills dst from the little-endian bit patterns at the head of
// src and returns the rest of src.
func getFloat64s(dst []float64, src []byte) []byte {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return src[8*len(dst):]
}

func getFloat32s(dst []float32, src []byte) []byte {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return src[4*len(dst):]
}

// decodeSpillEntry validates and decodes one spill file. Any mismatch —
// magic, version, a length, the checksum, the meta, a retired panel — is an
// error; the caller quarantines the file. Nothing is allocated for a matrix
// until the lengths the file declares, and the shapes its meta declares, have
// been shown to add up to exactly the bytes that are there.
func decodeSpillEntry(buf []byte) (*Entry, error) {
	if len(buf) < spillHeaderLen+4 || string(buf[0:4]) != spillMagic {
		return nil, fmt.Errorf("spill: bad magic")
	}
	if buf[4] != spillVersion {
		return nil, fmt.Errorf("spill: unsupported version %d", buf[4])
	}
	size := int64(len(buf))
	metaLen := binary.LittleEndian.Uint64(buf[8:16])
	bodyLen := binary.LittleEndian.Uint64(buf[16:24])
	if metaLen > uint64(size) || bodyLen > uint64(size) ||
		spillHeaderLen+pad8(int64(metaLen))+int64(bodyLen)+4 != size {
		return nil, fmt.Errorf("spill: torn file: %d bytes, header says %d of meta and %d of body", size, metaLen, bodyLen)
	}
	if crc := crc32.ChecksumIEEE(buf[:size-4]); crc != binary.LittleEndian.Uint32(buf[size-4:]) {
		return nil, fmt.Errorf("spill: checksum mismatch")
	}
	var meta spillMeta
	if err := json.Unmarshal(buf[spillHeaderLen:spillHeaderLen+int64(metaLen)], &meta); err != nil {
		return nil, fmt.Errorf("spill: meta: %w", err)
	}
	rows, cols, body := int64(meta.Rows), int64(meta.Cols), int64(bodyLen)
	if meta.Key == "" || rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("spill: invalid meta")
	}
	// A retired panel's factor: Factorize now runs its Config on CAQR.
	if meta.Config.Panel.String() == "other" {
		return nil, fmt.Errorf("spill: meta names no panel (%d)", int(meta.Config.Panel))
	}
	// Divisions, so the products below cannot overflow.
	if rows > body/8/cols || cols > body/4/cols || spillBodyLen(rows, cols, meta.HasScales) != body {
		return nil, fmt.Errorf("spill: meta declares a %dx%d entry, the body holds %d bytes", rows, cols, body)
	}
	a := tcqr.NewMatrix(meta.Rows, meta.Cols)
	f := &tcqr.Factorization{
		R:                tcqr.NewMatrix32(meta.Cols, meta.Cols),
		Reorthogonalized: meta.Reorthogonalized,
	}
	rest := getFloat64s(a.Data, buf[size-4-body:size-4])
	rest = getFloat32s(f.R.Data, rest)
	if meta.HasScales {
		f.ColumnScales = make([]float32, meta.Cols)
		getFloat32s(f.ColumnScales, rest)
	}
	return &Entry{Key: meta.Key, Epoch: meta.Epoch, A: a, F: f, Config: meta.Config}, nil
}
