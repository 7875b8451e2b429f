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
// One series is one append-only log, <dir>/<base key>.tcqs: a base record,
// then delta records, each checksummed on its own, little-endian throughout.
// A base record holds a whole entry:
//
//	magic "TCQS" | version u8 | reserved u8×3 | meta length u64 |
//	body length u64 | JSON spillMeta, zero-padded to 8 |
//	A float64[rows·cols] | R float32[cols·cols] |
//	column scales float32[cols] if has_scales | crc32 (IEEE) u32
//
// A delta record holds one update of the epoch before it:
//
//	magic "TCQD" | flags u8 | reserved u8×3 | epoch u64 | parent epoch u64 |
//	rows appended u64 | rows removed u64 |
//	appended rows of A float64[appended·cols] | R float32[cols·cols] |
//	column scales float32[cols] if flags say so | crc32 (IEEE) u32
//
// An update never rewrites A's surviving rows, so the row counts fix A's
// change; R, the scales and the flags are stored, not recomputed, so a
// rewarm replays no arithmetic. The matrices are column-major at the width
// they have in memory, every shape comes from the base's meta, and each
// checksum covers its record's bytes before it. This file owns the layout:
// spillEncoder writes it and decodeSpillLog reads it.
//
// Invariant: a series' newest durable epoch is lost only once a newer one
// is durable. An update whose parent is the log's last record appends a
// delta; anything else — a first publish, an update after a shed or failed
// write — writes a fresh base to a .tmp sibling and renames it over the log,
// as does compaction: once the deltas after the base would outweigh it, so
// a rewarm never reads more than twice an entry's bytes. A crash mid-append
// leaves a torn last record (no fsync), and rewarm sets that tail aside as
// <name>.quarantine and truncates the log to its last good record: only
// that epoch is lost. A torn base is quarantined whole, never served.
const (
	spillMagic      = "TCQS"
	spillDeltaMagic = "TCQD"
	// There is no legacy reader: rewarm quarantines a file of any other
	// version and the factor cache refactorizes on demand. v1 spelled the
	// engine as booleans, v2 held a retired second kernel's factors under
	// keys that now denote RGSQRF factors, v3 wrapped a wirefmt frame of
	// float64 sections, v4 held Q between A and R, v5 was one whole entry
	// per epoch, named by its versioned key.
	spillVersion        = 6
	spillHeaderLen      = 24
	spillDeltaHeaderLen = 40
	spillExt            = ".tcqs"
	spillQuarExt        = ".quarantine"
	// spillChunk is the writer's one buffer: bytes collect in it and reach
	// the file and the running checksum a chunk at a time.
	spillChunk = 64 << 10
)

// Delta record flags.
const (
	spillFlagReortho = 1 << iota
	spillFlagScales
)

// spillMeta is the JSON part of a base record. The meta — not the file
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
	// Writes counts records durably spilled: fresh bases (tmp written,
	// renamed) and deltas appended to a series' log.
	Writes int64 `json:"writes"`
	// WrittenBytes counts the bytes of those records.
	WrittenBytes int64 `json:"written_bytes"`
	// WriteErrors counts failed spill attempts (the entry stays cache-only).
	WriteErrors int64 `json:"write_errors"`
	// Dropped counts enqueue attempts shed because the write-behind queue
	// was full (write-behind never blocks the serving path).
	Dropped int64 `json:"dropped"`
	// Removes counts logs deleted because their series' entry was evicted.
	Removes int64 `json:"removes"`
	// Evictions counts logs deleted to keep the tier under -spill-max-bytes.
	Evictions int64 `json:"evictions"`
	// Loads / LoadErrors / Quarantined / Rewarmed describe the restart
	// rewarm pass: files read, files that failed to read, corrupt files and
	// torn log tails set aside as <name>.quarantine, and entries handed to
	// the cache.
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
	entry  *Entry        // write this entry (nil for remove/flush)
	update bool          // entry updates epoch parent of its series
	parent uint64        // the epoch entry was updated from
	remove *Entry        // delete this entry's series log, unless newer
	flush  chan struct{} // closed once every prior op has been processed
}

// spillLog is the tier's account of one series' log file.
type spillLog struct {
	name  string
	size  int64  // bytes of its good records
	base  int64  // bytes of its base record
	seq   int64  // order of its last write; lowest evicts first under the byte budget
	epoch uint64 // epoch of its last good record
	rows  int    // A's rows at that epoch
	cols  int
}

// SpillTier is the write-behind disk tier behind a FactorCache.
type SpillTier struct {
	dir      string
	maxBytes int64
	enc      *spillEncoder // the writer goroutine's alone

	queue chan spillOp
	stop  chan struct{}
	wg    sync.WaitGroup

	mu          sync.Mutex
	files       map[string]*spillLog // base key -> its series' log
	seq         int64
	bytesOnDisk int64
	writes      int64
	written     int64
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
// unbounded); the oldest logs are deleted first when over.
func NewSpillTier(dir string, maxBytes int64) (*SpillTier, error) {
	sp, err := newSpillTier(dir, maxBytes, 64)
	if err != nil {
		return nil, err
	}
	sp.wg.Add(1)
	go sp.worker()
	return sp, nil
}

// newSpillTier is NewSpillTier without the worker: a queue of depth ops
// that nothing drains until the caller says so.
func newSpillTier(dir string, maxBytes int64, depth int) (*SpillTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &SpillTier{
		dir:      dir,
		maxBytes: maxBytes,
		enc:      newSpillEncoder(),
		queue:    make(chan spillOp, depth),
		stop:     make(chan struct{}),
		files:    make(map[string]*spillLog),
	}, nil
}

// Enqueue schedules e for spilling as a fresh base of its series' log (a
// first publish). Never blocks: a full queue sheds the write (counted in
// Dropped) rather than stalling publication.
func (sp *SpillTier) Enqueue(e *Entry) { sp.enqueue(spillOp{entry: e}) }

// EnqueueUpdate schedules e, published as an update of epoch parent, for
// spilling: a delta record when parent is its log's last record, a fresh
// base otherwise. Never blocks, as Enqueue.
func (sp *SpillTier) EnqueueUpdate(e *Entry, parent uint64) {
	sp.enqueue(spillOp{entry: e, update: true, parent: parent})
}

// Remove schedules deletion of e's series log (e evicted, or declined at
// rewarm), unless the log already holds a newer epoch than e's. Called under
// the cache lock, so it must not touch the disk itself.
func (sp *SpillTier) Remove(e *Entry) { sp.enqueue(spillOp{remove: e}) }

func (sp *SpillTier) enqueue(op spillOp) {
	select {
	case sp.queue <- op:
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
		Writes:       sp.writes,
		WrittenBytes: sp.written,
		WriteErrors:  sp.writeErrs,
		Dropped:      sp.dropped,
		Removes:      sp.removes,
		Evictions:    sp.evictions,
		Loads:        sp.loads,
		LoadErrors:   sp.loadErrs,
		Quarantined:  sp.quarantined,
		Rewarmed:     sp.rewarmed,
		Files:        len(sp.files),
		BytesOnDisk:  sp.bytesOnDisk,
	}
}

func (sp *SpillTier) worker() {
	defer sp.wg.Done()
	for {
		select {
		case op := <-sp.queue:
			sp.process(op)
		case <-sp.stop:
			sp.drain()
			return
		}
	}
}

// drain processes the ops already queued.
func (sp *SpillTier) drain() {
	for {
		select {
		case op := <-sp.queue:
			sp.process(op)
		default:
			return
		}
	}
}

func (sp *SpillTier) process(op spillOp) {
	switch {
	case op.flush != nil:
		close(op.flush)
	case op.remove != nil:
		base := baseKey(op.remove.Key)
		sp.mu.Lock()
		lg := sp.files[base]
		gone := lg != nil && lg.epoch <= op.remove.Epoch
		if gone {
			sp.dropLocked(base, lg)
			sp.removes++
		}
		sp.mu.Unlock()
		if gone {
			os.Remove(filepath.Join(sp.dir, lg.name))
		}
	case op.entry != nil:
		sp.write(op)
	}
}

// dropLocked forgets base's log lg. sp.mu must be held.
func (sp *SpillTier) dropLocked(base string, lg *spillLog) {
	delete(sp.files, base)
	sp.bytesOnDisk -= lg.size
}

// write spills op's entry to its series' log — a delta record when the log
// takes it, a fresh base otherwise — then enforces the byte budget. A first
// publish of an epoch the log holds, or has moved past, writes nothing.
func (sp *SpillTier) write(op spillOp) {
	e := op.entry
	base := baseKey(e.Key)
	sp.mu.Lock()
	lg := sp.files[base]
	sp.mu.Unlock()
	if lg != nil && !op.update && lg.epoch >= e.Epoch {
		return
	}
	var (
		n        int64
		err      error
		replaced bool
		name     string
	)
	delta := lg.takes(op)
	if delta {
		n, err = sp.appendDelta(lg, e)
	} else {
		if name = spillFileName(base); lg != nil {
			name = lg.name
		}
		n, replaced, err = sp.writeBase(name, e)
	}

	var victims []string
	sp.mu.Lock()
	switch {
	case err != nil:
		// A failed append leaves the log at its last good record: the next
		// update of the series names the failed epoch as its parent, so it
		// is a base, which replaces whatever the append left past it.
		sp.writeErrs++
		if replaced && lg != nil {
			sp.dropLocked(base, lg) // the failpoint tore the new base over the log
		}
	default:
		sp.writes++
		sp.written += n
		if delta {
			lg.size += n
		} else {
			if lg != nil {
				sp.bytesOnDisk -= lg.size
			}
			lg = &spillLog{name: name, size: n, base: n, cols: e.A.Cols}
			sp.files[base] = lg
		}
		sp.bytesOnDisk += n
		sp.seq++
		lg.seq, lg.epoch, lg.rows = sp.seq, e.Epoch, e.A.Rows
		victims = sp.overBudgetLocked(base)
	}
	sp.mu.Unlock()
	for _, v := range victims {
		os.Remove(filepath.Join(sp.dir, v))
	}
}

// takes reports whether op's entry goes onto lg as a delta record: it
// updates lg's last record, moves A's row count, and leaves the records after
// the base no heavier than the base (past that, the log compacts to a fresh
// base).
func (lg *spillLog) takes(op spillOp) bool {
	e := op.entry
	if lg == nil || !op.update || op.parent != lg.epoch || e.Epoch != lg.epoch+1 ||
		e.A.Cols != lg.cols || e.A.Rows == lg.rows {
		return false
	}
	added := int64(max(e.A.Rows-lg.rows, 0))
	return lg.size-lg.base+spillDeltaLen(added, int64(lg.cols), len(e.F.ColumnScales) > 0) <= lg.base
}

// writeBase writes e as the base record of a fresh log, to a .tmp sibling
// renamed over name. replaced reports that name now holds this write's
// bytes: true on success, and when the failpoint left a torn file there.
func (sp *SpillTier) writeBase(name string, e *Entry) (n int64, replaced bool, err error) {
	final := filepath.Join(sp.dir, name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		n, err = sp.enc.base(f, e)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		// Failpoint: models a crash (power loss after rename, before the
		// data blocks hit disk) by leaving a torn file at the final name —
		// exactly what the checksummed rewarm pass must quarantine.
		if err = faultinject.Fire(siteSpillWrite); err != nil {
			os.Truncate(tmp, n/2)
			replaced = os.Rename(tmp, final) == nil
		} else if err = os.Rename(tmp, final); err == nil {
			replaced = true
		}
	}
	if err != nil {
		os.Remove(tmp) // no-op after the failpoint's rename
	}
	return n, replaced, err
}

// appendDelta appends e's delta record to lg's file, after its last good
// record.
func (sp *SpillTier) appendDelta(lg *spillLog, e *Entry) (int64, error) {
	f, err := os.OpenFile(filepath.Join(sp.dir, lg.name), os.O_WRONLY, 0)
	if err != nil {
		return 0, err
	}
	_, err = f.Seek(lg.size, io.SeekStart)
	var n int64
	if err == nil {
		n, err = sp.enc.delta(f, e, lg.epoch, lg.rows)
	}
	if err == nil {
		// Failpoint: the crash model of writeBase, for an append: the
		// record is left torn at the log's end.
		if err = faultinject.Fire(siteSpillWrite); err != nil {
			f.Truncate(lg.size + n/2)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// overBudgetLocked pops the oldest logs (never keep's own) until the tier
// fits the byte budget, returning the file names to delete. sp.mu must be
// held.
func (sp *SpillTier) overBudgetLocked(keep string) []string {
	if sp.maxBytes <= 0 {
		return nil
	}
	var victims []string
	for sp.bytesOnDisk > sp.maxBytes {
		oldKey, oldSeq := "", int64(-1)
		for k, lg := range sp.files {
			if k == keep {
				continue
			}
			if oldSeq < 0 || lg.seq < oldSeq {
				oldKey, oldSeq = k, lg.seq
			}
		}
		if oldSeq < 0 {
			return victims
		}
		lg := sp.files[oldKey]
		sp.dropLocked(oldKey, lg)
		sp.evictions++
		victims = append(victims, lg.name)
	}
	return victims
}

// Rewarm loads the newest good epoch of every series log into entries ready
// for FactorCache.AdoptRewarmed, quarantines logs whose base is corrupt
// (renamed to <name>.quarantine so the next restart does not retry them),
// sets a torn or corrupt tail aside in <name>.quarantine and truncates the
// log to its last good record, and sweeps tmp orphans. Runs synchronously
// at daemon startup, before serving; the caller Removes the entries it
// declines.
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
		var (
			e              *Entry
			good, baseSize int64
		)
		if err == nil {
			e, good, baseSize, err = decodeSpillLog(buf)
		}
		if err == nil && name != spillFileName(baseKey(e.Key)) {
			err = fmt.Errorf("spill: %s holds series %s", name, baseKey(e.Key))
		}
		if err != nil {
			sp.mu.Lock()
			sp.loadErrs++
			sp.quarantined++
			sp.mu.Unlock()
			os.Rename(path, path+spillQuarExt)
			continue
		}
		tail := good < int64(len(buf))
		if tail {
			// A log whose tail cannot be cut is skipped like a read error: the
			// next write would append after the tail.
			os.WriteFile(path+spillQuarExt, buf[good:], 0o644) // for inspection; nothing reads it
			if err := os.Truncate(path, good); err != nil {
				sp.mu.Lock()
				sp.loadErrs++
				sp.mu.Unlock()
				continue
			}
		}
		sp.mu.Lock()
		if tail {
			sp.quarantined++
		}
		sp.seq++
		sp.files[baseKey(e.Key)] = &spillLog{name: name, size: good, base: baseSize, seq: sp.seq,
			epoch: e.Epoch, rows: e.A.Rows, cols: e.A.Cols}
		sp.bytesOnDisk += good
		sp.rewarmed++
		sp.mu.Unlock()
		out = append(out, e)
	}
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

// spillBodyLen is the byte length of the matrices of a rows×cols base
// record. The caller has bounded rows·cols and cols·cols, so the sum cannot
// overflow.
func spillBodyLen(rows, cols int64, hasScales bool) int64 {
	n := 8*rows*cols + 4*cols*cols
	if hasScales {
		n += 4 * cols
	}
	return n
}

// spillDeltaLen is the byte length of a delta record that appends added
// rows to a log of cols columns, checksum included. The caller has bounded
// added·cols and cols·cols.
func spillDeltaLen(added, cols int64, hasScales bool) int64 {
	return spillDeltaHeaderLen + spillBodyLen(added, cols, hasScales) + 4
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

// crcWriter passes bytes on to w and folds the ones w took into a running
// crc32 (IEEE).
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// spillEncoder streams records through one spillChunk buffer and a running
// checksum, both reused from record to record: what a write allocates does
// not grow with the entry, and once warm it holds no chunk. One goroutine
// uses an encoder at a time (the tier's writer). bufio.Writer keeps the first
// write error and returns it from Flush.
type spillEncoder struct {
	bw  *bufio.Writer
	out crcWriter
}

func newSpillEncoder() *spillEncoder {
	enc := new(spillEncoder)
	enc.bw = bufio.NewWriterSize(&enc.out, spillChunk)
	return enc
}

// begin points the encoder at w with a fresh checksum.
func (enc *spillEncoder) begin(w io.Writer) *bufio.Writer {
	enc.out = crcWriter{w: w}
	enc.bw.Reset(&enc.out)
	return enc.bw
}

// end flushes the record and appends its checksum, returning n, the
// record's length, or the first write error.
func (enc *spillEncoder) end(n int64) (int64, error) {
	if err := enc.bw.Flush(); err != nil {
		return 0, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], enc.out.crc)
	if _, err := enc.out.w.Write(sum[:]); err != nil {
		return 0, err
	}
	return n, nil
}

// factors streams R column by column, then the column scales.
func (enc *spillEncoder) factors(f *tcqr.Factorization) {
	for j := 0; j < f.R.Cols; j++ {
		putFloats(enc.bw, f.R.Col(j), 4, putFloat32s)
	}
	putFloats(enc.bw, f.ColumnScales, 4, putFloat32s)
}

// base streams e as a base record to w and returns its length.
func (enc *spillEncoder) base(w io.Writer, e *Entry) (int64, error) {
	a := e.A
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

	bw := enc.begin(w)
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
	enc.factors(e.F)
	return enc.end(spillHeaderLen + pad8(metaLen) + bodyLen + 4)
}

// delta streams e as a delta record on top of epoch parent, whose A had
// parentRows rows, to w and returns its length. e.A keeps the parent's
// first min(parentRows, e.A.Rows) rows, as every update does.
func (enc *spillEncoder) delta(w io.Writer, e *Entry, parent uint64, parentRows int) (int64, error) {
	a := e.A
	added, removed := max(a.Rows-parentRows, 0), max(parentRows-a.Rows, 0)
	var flags byte
	if e.F.Reorthogonalized {
		flags |= spillFlagReortho
	}
	if len(e.F.ColumnScales) > 0 {
		flags |= spillFlagScales
	}
	bw := enc.begin(w)
	var hdr [spillDeltaHeaderLen]byte
	copy(hdr[0:4], spillDeltaMagic)
	hdr[4] = flags
	binary.LittleEndian.PutUint64(hdr[8:16], e.Epoch)
	binary.LittleEndian.PutUint64(hdr[16:24], parent)
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(added))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(removed))
	bw.Write(hdr[:])
	for j := 0; j < a.Cols && added > 0; j++ {
		putFloats(bw, a.Col(j)[parentRows:], 8, putFloat64s)
	}
	enc.factors(e.F)
	return enc.end(spillDeltaLen(int64(added), int64(a.Cols), flags&spillFlagScales != 0))
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

// rowBlock is a run of A's rows as a log stores them: column-major at byte
// offset at, ld rows to a column, of which the leading n are A's.
type rowBlock struct{ at, ld, n int64 }

// decodeSpillLog validates and decodes a series log: its base record, then
// each delta record on top, up to the first that does not check out — torn,
// a bad checksum, not the update of the record before it. It returns the
// entry at the last good record, the bytes of the good records and those of
// the base alone. An error means the base is bad and the caller quarantines
// the file; bytes past good are a tail the caller sets aside. Nothing is
// allocated for a matrix until the lengths the file declares, and the shapes
// its meta declares, have been shown to fit in the bytes that are there.
func decodeSpillLog(buf []byte) (e *Entry, good, baseLen int64, err error) {
	meta, baseLen, err := decodeSpillBase(buf)
	if err != nil {
		return nil, 0, 0, err
	}
	rows, cols := int64(meta.Rows), int64(meta.Cols)
	blocks := []rowBlock{{at: baseLen - 4 - spillBodyLen(rows, cols, meta.HasScales), ld: rows, n: rows}}
	factorsAt := blocks[0].at + 8*rows*cols
	epoch, reortho, scales := meta.Epoch, meta.Reorthogonalized, meta.HasScales
	for good = baseLen; good < int64(len(buf)); {
		rec := buf[good:]
		if len(rec) < spillDeltaHeaderLen+4 || string(rec[0:4]) != spillDeltaMagic ||
			rec[4]&^(spillFlagReortho|spillFlagScales) != 0 || rec[5]|rec[6]|rec[7] != 0 {
			break
		}
		recEpoch := binary.LittleEndian.Uint64(rec[8:16])
		parent := binary.LittleEndian.Uint64(rec[16:24])
		added := binary.LittleEndian.Uint64(rec[24:32])
		removed := binary.LittleEndian.Uint64(rec[32:40])
		// Divisions, so no product below can overflow.
		if parent != epoch || recEpoch != epoch+1 || recEpoch == 0 || (added == 0) == (removed == 0) ||
			added > uint64(len(rec))/8/uint64(cols) || removed > uint64(rows-cols) {
			break
		}
		hasScales := rec[4]&spillFlagScales != 0
		n := spillDeltaLen(int64(added), cols, hasScales)
		if n > int64(len(rec)) || crc32.ChecksumIEEE(rec[:n-4]) != binary.LittleEndian.Uint32(rec[n-4:]) {
			break
		}
		if added > 0 {
			blocks = append(blocks, rowBlock{at: good + spillDeltaHeaderLen, ld: int64(added), n: int64(added)})
			rows += int64(added)
		}
		for k := int64(removed); k > 0; {
			last := &blocks[len(blocks)-1]
			cut := min(k, last.n)
			last.n -= cut
			k -= cut
			if last.n == 0 {
				blocks = blocks[:len(blocks)-1]
			}
		}
		rows -= int64(removed)
		factorsAt = good + spillDeltaHeaderLen + 8*int64(added)*cols
		epoch, reortho, scales = recEpoch, rec[4]&spillFlagReortho != 0, hasScales
		good += n
	}

	a := tcqr.NewMatrix(int(rows), meta.Cols)
	for j := int64(0); j < cols; j++ {
		col := a.Col(int(j))
		for _, b := range blocks {
			getFloat64s(col[:b.n], buf[b.at+8*j*b.ld:])
			col = col[b.n:]
		}
	}
	f := &tcqr.Factorization{R: tcqr.NewMatrix32(meta.Cols, meta.Cols), Reorthogonalized: reortho}
	rest := getFloat32s(f.R.Data, buf[factorsAt:])
	if scales {
		f.ColumnScales = make([]float32, meta.Cols)
		getFloat32s(f.ColumnScales, rest)
	}
	key := versionedKey(baseKey(meta.Key), epoch)
	if epoch == meta.Epoch {
		key = meta.Key
	}
	return &Entry{Key: key, Epoch: epoch, A: a, F: f, Config: meta.Config}, good, baseLen, nil
}

// decodeSpillBase validates the base record at the head of buf — magic,
// version, lengths, checksum, meta, a retired panel — and returns its meta
// and length.
func decodeSpillBase(buf []byte) (meta spillMeta, n int64, err error) {
	if len(buf) < spillHeaderLen+4 || string(buf[0:4]) != spillMagic {
		return meta, 0, fmt.Errorf("spill: bad magic")
	}
	if buf[4] != spillVersion {
		return meta, 0, fmt.Errorf("spill: unsupported version %d", buf[4])
	}
	size := int64(len(buf))
	metaLen := binary.LittleEndian.Uint64(buf[8:16])
	bodyLen := binary.LittleEndian.Uint64(buf[16:24])
	if metaLen > uint64(size) || bodyLen > uint64(size) ||
		spillHeaderLen+pad8(int64(metaLen))+int64(bodyLen)+4 > size {
		return meta, 0, fmt.Errorf("spill: torn base: %d bytes, header says %d of meta and %d of body", size, metaLen, bodyLen)
	}
	body := int64(bodyLen)
	n = spillHeaderLen + pad8(int64(metaLen)) + body + 4
	if crc := crc32.ChecksumIEEE(buf[:n-4]); crc != binary.LittleEndian.Uint32(buf[n-4:]) {
		return meta, 0, fmt.Errorf("spill: checksum mismatch")
	}
	if err := json.Unmarshal(buf[spillHeaderLen:spillHeaderLen+int64(metaLen)], &meta); err != nil {
		return meta, 0, fmt.Errorf("spill: meta: %w", err)
	}
	rows, cols := int64(meta.Rows), int64(meta.Cols)
	if meta.Key == "" || rows <= 0 || cols <= 0 || rows < cols {
		return meta, 0, fmt.Errorf("spill: invalid meta")
	}
	// A retired panel's factor: Factorize now runs its Config on CAQR.
	if meta.Config.Panel.String() == "other" {
		return meta, 0, fmt.Errorf("spill: meta names no panel (%d)", int(meta.Config.Panel))
	}
	// Divisions, so the products below cannot overflow.
	if rows > body/8/cols || cols > body/4/cols || spillBodyLen(rows, cols, meta.HasScales) != body {
		return meta, 0, fmt.Errorf("spill: meta declares a %dx%d entry, the body holds %d bytes", rows, cols, body)
	}
	return meta, n, nil
}
