package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tcqr"
	"tcqr/internal/faultinject"
	"tcqr/internal/wirefmt"
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
// One entry is one file, <dir>/<n>.tcqs:
//
//	magic "TCQS" | version u8 | reserved u8×3 | crc32 (IEEE, payload) u32 |
//	payload length u64 | payload
//
// The payload is a wirefmt frame: [JSON spillMeta, A (f64 matrix),
// Q (widened f64 matrix), R (widened f64 matrix), column scales (vector,
// optional)]. Files are written to a .tmp sibling and atomically renamed
// into place, so a crash mid-write leaves a tmp orphan (swept at rewarm),
// never a half-written .tcqs — but a power loss after rename can still
// leave a torn file (no fsync), which is why every load is checksummed and
// torn files are quarantined, never served.
const (
	spillMagic = "TCQS"
	// v3 keeps v2's layout (the meta embeds tcqr.Config, engine by name; v1
	// spelled it as booleans) and retires v2's files: for tall-skinny shapes
	// they hold a retired second kernel's factors under keys that now denote
	// RGSQRF factors. No legacy reader for either: rewarm quarantines them.
	spillVersion   = 3
	spillHeaderLen = 20
	spillExt       = ".tcqs"
	spillQuarExt   = ".quarantine"
)

// spillMeta is the JSON section of a spill file. The meta — not the file
// name — is authoritative for the entry's identity.
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

// write encodes and persists one entry, then enforces the byte budget.
func (sp *SpillTier) write(e *Entry) {
	buf, err := encodeSpillEntry(e)
	final := filepath.Join(sp.dir, spillFileName(e.Key))
	if err == nil {
		// Failpoint: models a crash (power loss after rename, before the
		// data blocks hit disk) by leaving a torn file at the final name —
		// exactly what the checksummed rewarm pass must quarantine.
		if ferr := faultinject.Fire(siteSpillWrite); ferr != nil {
			os.WriteFile(final, buf[:len(buf)/2], 0o644)
			err = ferr
		}
	}
	if err == nil {
		tmp := final + ".tmp"
		err = os.WriteFile(tmp, buf, 0o644)
		if err == nil {
			err = os.Rename(tmp, final)
			if err != nil {
				os.Remove(tmp)
			}
		}
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
	sp.files[e.Key] = spillFile{name: spillFileName(e.Key), size: int64(len(buf)), seq: sp.seq, epoch: e.Epoch}
	sp.bytesOnDisk += int64(len(buf))
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
		info, ierr := de.Info()
		size := int64(len(buf))
		if ierr == nil {
			size = info.Size()
		}
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

// widen32 returns m's elements as a tight column-major float64 slice.
func widen32(m *tcqr.Matrix32) []float64 {
	out := make([]float64, m.Rows*m.Cols)
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.Stride : j*m.Stride+m.Rows]
		dst := out[j*m.Rows : (j+1)*m.Rows]
		for i, x := range col {
			dst[i] = float64(x)
		}
	}
	return out
}

// narrow64 rebuilds a float32 matrix from a widened column-major payload
// (exact: the payload was widened from float32).
func narrow64(rows, cols int, data []float64) *tcqr.Matrix32 {
	m := tcqr.NewMatrix32(rows, cols)
	for j := 0; j < cols; j++ {
		col := m.Col(j)
		src := data[j*rows : (j+1)*rows]
		for i, x := range src {
			col[i] = float32(x)
		}
	}
	return m
}

// encodeSpillEntry renders the full spill file (header + checksummed
// wirefmt payload) for e.
func encodeSpillEntry(e *Entry) ([]byte, error) {
	var meta spillMeta
	meta.Key = e.Key
	meta.Epoch = e.Epoch
	meta.Rows = e.A.Rows
	meta.Cols = e.A.Cols
	meta.Reorthogonalized = e.F.Reorthogonalized
	meta.HasScales = len(e.F.ColumnScales) > 0
	meta.Config = e.Config
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	secs := []wirefmt.Section{
		wirefmt.JSONSection(mj),
		wirefmt.MatrixSection(e.A.Rows, e.A.Cols, colMajorData(e.A)),
		wirefmt.MatrixSection(e.F.Q.Rows, e.F.Q.Cols, widen32(e.F.Q)),
		wirefmt.MatrixSection(e.F.R.Rows, e.F.R.Cols, widen32(e.F.R)),
	}
	if meta.HasScales {
		scales := make([]float64, len(e.F.ColumnScales))
		for i, s := range e.F.ColumnScales {
			scales[i] = float64(s)
		}
		secs = append(secs, wirefmt.VectorSection(scales))
	}
	n, err := wirefmt.FrameLen(secs...)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, spillHeaderLen, spillHeaderLen+n)
	buf, err = wirefmt.AppendFrame(buf, secs...)
	if err != nil {
		return nil, err
	}
	copy(buf[0:4], spillMagic)
	buf[4] = spillVersion
	payload := buf[spillHeaderLen:]
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(buf[12:20], uint64(len(payload)))
	return buf, nil
}

// decodeSpillEntry validates and decodes one spill file. Any mismatch —
// magic, version, length, checksum, frame structure — is an error; the
// caller quarantines the file.
func decodeSpillEntry(buf []byte) (*Entry, error) {
	if len(buf) < spillHeaderLen || string(buf[0:4]) != spillMagic {
		return nil, fmt.Errorf("spill: bad magic")
	}
	if buf[4] != spillVersion {
		return nil, fmt.Errorf("spill: unsupported version %d", buf[4])
	}
	want := binary.LittleEndian.Uint64(buf[12:20])
	payload := buf[spillHeaderLen:]
	if uint64(len(payload)) != want {
		return nil, fmt.Errorf("spill: torn file: %d payload bytes, header says %d", len(payload), want)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(buf[8:12]) {
		return nil, fmt.Errorf("spill: checksum mismatch")
	}
	secs, err := wirefmt.Decode(payload, nil)
	if err != nil {
		return nil, err
	}
	js := wirefmt.FindSection(secs, wirefmt.TagJSON)
	if js == nil {
		return nil, fmt.Errorf("spill: missing meta section")
	}
	var meta spillMeta
	if err := json.Unmarshal(js.Raw, &meta); err != nil {
		return nil, err
	}
	if meta.Key == "" || meta.Rows <= 0 || meta.Cols <= 0 {
		return nil, fmt.Errorf("spill: invalid meta")
	}
	var mats []*wirefmt.Section
	var vec *wirefmt.Section
	for i := range secs {
		switch secs[i].Tag {
		case wirefmt.TagMatrix:
			mats = append(mats, &secs[i])
		case wirefmt.TagVector:
			vec = &secs[i]
		}
	}
	if len(mats) != 3 {
		return nil, fmt.Errorf("spill: want 3 matrix sections, got %d", len(mats))
	}
	aSec, qSec, rSec := mats[0], mats[1], mats[2]
	if int(aSec.A) != meta.Rows || int(aSec.B) != meta.Cols {
		return nil, fmt.Errorf("spill: A section %dx%d, meta says %dx%d", aSec.A, aSec.B, meta.Rows, meta.Cols)
	}
	if int(qSec.A) != meta.Rows || int(qSec.B) != meta.Cols || int(rSec.A) != meta.Cols || int(rSec.B) != meta.Cols {
		return nil, fmt.Errorf("spill: factor sections %dx%d / %dx%d inconsistent with %dx%d",
			qSec.A, qSec.B, rSec.A, rSec.B, meta.Rows, meta.Cols)
	}
	a := tcqr.FromColMajor(meta.Rows, meta.Cols, append([]float64(nil), aSec.Float64s()...))
	f := &tcqr.Factorization{
		Q:                narrow64(meta.Rows, meta.Cols, qSec.Float64s()),
		R:                narrow64(meta.Cols, meta.Cols, rSec.Float64s()),
		Reorthogonalized: meta.Reorthogonalized,
	}
	if meta.HasScales {
		if vec == nil || int(vec.A) != meta.Cols {
			return nil, fmt.Errorf("spill: missing or misshapen scales section")
		}
		f.ColumnScales = make([]float32, meta.Cols)
		for i, s := range vec.Float64s() {
			f.ColumnScales[i] = float32(s)
		}
	}
	return &Entry{Key: meta.Key, Epoch: meta.Epoch, A: a, F: f, Config: meta.Config}, nil
}
