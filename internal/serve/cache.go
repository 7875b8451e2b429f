package serve

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"tcqr"
	"tcqr/internal/faultinject"
)

// CacheKey derives the content-addressed cache key for factoring a under
// cfg: the 64-bit content hash of the matrix (shape + every element, see
// dense.Matrix.Hash64) plus a fingerprint of every Config field the
// factorization depends on. Two requests that would make Factorize do
// identical work get the same key. The converse is a 64-bit non-cryptographic
// hash's word and no more: the key is a name, not a proof, and every lookup
// that resolves one for a matrix compares the matrix (GetOrFactor).
func CacheKey(a *tcqr.Matrix, cfg tcqr.Config) string {
	return fmt.Sprintf("m%016x-%s", a.Hash64(), configFingerprint(cfg))
}

// configFingerprint encodes every Config field into a short stable string.
// The 0 after the engine is where earlier builds wrote a panel-engine flag
// that was 0 for every config the wire could express: keeping it keeps the
// keys they issued, and the spill files they wrote, resolving.
func configFingerprint(c tcqr.Config) string {
	return fmt.Sprintf("e%d0-p%d-c%d-r%d%d-h%d",
		int(c.Engine),
		int(c.Panel), c.Cutoff,
		b2i(c.ReOrthogonalize), b2i(c.DisableColumnScaling),
		int(c.OnHazard))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Epoch-versioned keys (/v1/update): a factorization enters the cache at
// epoch 0 under its bare content-hash key; every applied update publishes a
// new immutable entry under base@N. A bare base key always resolves to the
// newest epoch when a request names it (solve by key, update); a versioned
// key names exactly one epoch. A request that carries its own matrix derives
// the bare key from the content, and that lookup is exact: the bare key then
// means "this matrix", never "whatever the series has become". CacheKey
// output never contains '@', so the split below is unambiguous.
//
// Lifetime: an Entry is immutable once published. Leaving the index
// (eviction, supersession by a newer epoch, Reset) never mutates it, so
// whoever holds the pointer keeps reading the same factors — and reports the
// exact epoch key it resolved — for as long as it likes, and the collector
// frees the entry when the last holder lets go. Callers owe the cache
// nothing after a lookup returns.

// versionedKey renders the cache key of epoch e in base's series.
func versionedKey(base string, epoch uint64) string {
	if epoch == 0 {
		return base
	}
	return fmt.Sprintf("%s@%d", base, epoch)
}

// baseKey strips the epoch suffix; base keys pass through unchanged. The
// cluster tier routes on it so every epoch of a series lands on the same
// owners.
func baseKey(key string) string {
	if i := strings.LastIndexByte(key, '@'); i >= 0 {
		return key[:i]
	}
	return key
}

// Verified content addressing: a content key names an entry, the entry's A
// proves it. When the name is taken by another matrix — a hash collision,
// chance or crafted — the request resolves under the next salted name,
// key~1 … key~maxKeySalt, each verified the same way; with all of them taken
// by other matrices it is factored and answered but not cached. A salted name
// is an ordinary key from then on (its own update series, its own spill
// file); CacheKey output never contains '~'.
const maxKeySalt = 3

func saltedKey(key string, salt int) string {
	if salt == 0 {
		return key
	}
	return fmt.Sprintf("%s~%d", key, salt)
}

// ownerKey is the part of key that cluster ownership hashes: the content key
// without salt or epoch, so a collided matrix and every epoch of its series
// live on the owners its content-keyed requests route to.
func ownerKey(key string) string {
	if i := strings.IndexAny(key, "~@"); i >= 0 {
		return key[:i]
	}
	return key
}

// sameMatrix reports whether a and b have one shape and the same bits in
// every element: -0 is not +0 here and a NaN equals itself, which is what
// "the matrix this key was derived from" means (dense.Equal says the
// opposite on both). About 0.1 ms per MB.
func sameMatrix(a, b *tcqr.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i, v := range ca {
			if math.Float64bits(v) != math.Float64bits(cb[i]) {
				return false
			}
		}
	}
	return true
}

// Entry is one cached factorization together with the float64 matrix it
// factors: the refinement stage of every solve needs A at full precision,
// so solve-by-key requests carry only the right-hand side. The factor has no
// Q: CGLS and LSQR read A and R alone, as Algorithm 3 does. Entries are
// immutable once published — an update never mutates an entry, it publishes
// a new one under the next epoch key. No code writes an Entry.A (or its
// factors) after publish, which is what lets a downdated epoch's A be a view
// of its parent's storage (dropRows64).
type Entry struct {
	// Key is the entry's exact (epoch-versioned) cache key: the bare base
	// key at epoch 0, base@N after N updates.
	Key string
	// Epoch counts the updates applied since the original factorization.
	Epoch  uint64
	A      *tcqr.Matrix
	F      *tcqr.Factorization
	Config tcqr.Config
	bytes  int64

	// Intrusive exact-LRU list links: the index's own bookkeeping, guarded
	// by the cache mutex and never read by an entry's holders.
	prev, next *Entry
}

// sizeBytes is the resident size of the entry's arrays: A at 8 bytes per
// element, R and the column scales at 4. It holds from the first solve on as
// before it: a solve refines with the float32 R as it stands and attaches
// nothing to the factorization. A counts the whole array it keeps alive: a
// downdated epoch's A is a view that ends up to k·(n−1) elements short of
// its parent's array, and the byte budget must not under-count it.
func (e *Entry) sizeBytes() int64 {
	n := int64(cap(e.A.Data)) * 8
	if e.F != nil {
		n += int64(len(e.F.R.Data))*4 + int64(len(e.F.ColumnScales))*4
	}
	return n
}

// Source classifies how a GetOrFactor call obtained its entry.
type Source int

const (
	// SourceHit: the factorization was already cached.
	SourceHit Source = iota
	// SourceMiss: this call factored the matrix (singleflight leader).
	SourceMiss
	// SourceShared: another in-flight call was already factoring the same
	// key; this call waited for it instead of duplicating the work.
	SourceShared
)

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Entries            int   `json:"entries"`
	Bytes              int64 `json:"bytes"`
	Hits               int64 `json:"hits"`
	Misses             int64 `json:"misses"`
	Evictions          int64 `json:"evictions"`
	SingleflightShared int64 `json:"singleflight_shared"`
	// Updates counts epochs published through ApplyUpdate.
	Updates int64 `json:"updates"`
	// Retired counts entries retired because a newer epoch superseded them.
	Retired int64 `json:"retired"`
	// Rewarmed counts entries adopted from the disk spill tier at startup.
	Rewarmed int64 `json:"rewarmed"`
	// KeyCollisions counts content-keyed lookups that found their name held
	// by a different matrix and moved on to the next salted name.
	KeyCollisions int64 `json:"key_collisions"`
}

// FactorCache is a content-hash-keyed exact-LRU cache of factorizations
// with singleflight deduplication: concurrent GetOrFactor calls for the
// same key share one Factorize call. Errors are never cached — a failed
// factorization is retried by the next request.
//
// Capacity is bounded twice: by entry count (maxEntries) and, when a byte
// budget is set, by estimated resident bytes — eviction pops the LRU tail
// until both bounds hold, so a handful of huge factors can no longer blow
// past memory while tiny entries are evicted needlessly.
//
// Every lookup and insert runs under one mutex with an intrusive
// doubly-linked LRU list, giving O(1) exact-LRU promotion and eviction;
// epoch publication needs the lock for correctness, and at ms-scale solve
// costs it is not measurable — see DESIGN.md §15.
type FactorCache struct {
	maxEntries int
	maxBytes   int64 // 0 = unbounded
	backend    Backend
	spill      *SpillTier // optional write-behind disk tier (nil = off)

	mu       sync.Mutex
	upd      sync.Cond // waits for per-series update serialization
	entries  map[string]*Entry
	series   map[string]*series // base key -> epoch chain state
	lru      lruList
	count    int
	bytes    int64
	hits     int64
	misses   int64
	evicted  int64
	shared   int64
	updates  int64
	retired  int64
	rewarmed int64
	collided int64
	inflight map[string]*flight
}

// series tracks one base key's epoch chain: the newest entry and whether an
// update is being applied (updates on a series are serialized; solves are
// not blocked — they keep resolving the current epoch until the new one is
// published atomically).
type series struct {
	current  *Entry
	updating bool
}

// lruList is the intrusive recency list: head is most recently used, tail
// is the eviction victim. All operations are O(1).
type lruList struct {
	head, tail *Entry
}

func (l *lruList) pushFront(e *Entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lruList) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruList) moveFront(e *Entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// flight is one in-progress factorization of a that followers carrying the
// same matrix wait on.
type flight struct {
	a     *tcqr.Matrix
	done  chan struct{}
	entry *Entry
	err   error
}

// NewFactorCache builds a cache holding at most maxEntries factorizations
// (minimum 1) backed by be. Optional bounds and tiers attach before serving
// begins: SetByteBudget, attachSpill.
func NewFactorCache(maxEntries int, be Backend) *FactorCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	c := &FactorCache{
		maxEntries: maxEntries,
		backend:    be,
		entries:    make(map[string]*Entry),
		series:     make(map[string]*series),
		inflight:   make(map[string]*flight),
	}
	c.upd.L = &c.mu
	return c
}

// SetByteBudget bounds the cache's estimated resident bytes (0 = entry
// count only). Call before serving begins.
func (c *FactorCache) SetByteBudget(n int64) {
	if n < 0 {
		n = 0
	}
	c.maxBytes = n
}

// attachSpill wires the write-behind disk tier: published entries are
// enqueued for spill, evicted and retired ones removed. Call before serving
// begins.
func (c *FactorCache) attachSpill(sp *SpillTier) { c.spill = sp }

// lookupLocked resolves key. By key (exact false), a bare base key resolves
// through its series to the newest epoch and a versioned key to exactly that
// epoch. A content-derived key (exact true) resolves to the entry stored
// under it and nothing else: after an update the series' newest epoch factors
// a different matrix than the one the key was hashed from.
func (c *FactorCache) lookupLocked(key string, exact bool) *Entry {
	if s := c.series[key]; !exact && s != nil && s.current != nil {
		return s.current
	}
	return c.entries[key]
}

// Get returns the cached entry a client-named key resolves to (bare key →
// newest epoch), if present, counting a hit and promoting it to most recently
// used. The client named the entry; nothing is compared.
func (c *FactorCache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.lookupLocked(key, false)
	if e != nil {
		c.lru.moveFront(e)
		c.hits++
	}
	return e, e != nil
}

// resolve walks key's salted names to the first that is a's or nobody's and
// returns it: with the entry stored there (a hit, counted and promoted), or
// with the flight factoring a there (joined, counted as shared), or — the
// name was free — with lead, registered under it and counted as a miss when
// lead is non-nil. Every name held by another matrix is a counted collision,
// and name "" means all of them were. The comparisons run outside the lock:
// an entry's and a flight's matrix are immutable, and half a millisecond per
// 4 MB is long to hold up every other lookup.
func (c *FactorCache) resolve(key string, a *tcqr.Matrix, lead *flight) (name string, e *Entry, fl *flight) {
	for salt := 0; salt <= maxKeySalt; salt++ {
		name = saltedKey(key, salt)
		c.mu.Lock()
		e = c.lookupLocked(name, true)
		if lead != nil {
			fl = c.inflight[name]
		}
		if e == nil && fl == nil {
			if lead != nil {
				c.inflight[name] = lead
				c.misses++
			}
			c.mu.Unlock()
			return name, nil, lead
		}
		c.mu.Unlock()
		var same bool
		if e != nil {
			same = sameMatrix(e.A, a)
		} else {
			same = sameMatrix(fl.a, a)
		}
		c.mu.Lock()
		switch {
		case !same:
			c.collided++
		case e != nil:
			// An entry evicted since the lookup above has lost its list links;
			// it still answers this request.
			if c.entries[name] == e {
				c.lru.moveFront(e)
			}
			c.hits++
		default:
			c.shared++
		}
		c.mu.Unlock()
		if same {
			return name, e, fl
		}
	}
	return "", nil, nil
}

// Peek reports whether key is resolvable (exactly, or by key as Get does)
// without promoting it or counting a hit. The cluster router uses it: a
// routing decision must not read as cache traffic.
func (c *FactorCache) Peek(key string, exact bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key, exact) != nil
}

// GetOrFactor returns the entry that factors a under cfg, factoring it on a
// miss; key must be CacheKey(a, cfg). Concurrent misses are deduplicated: one
// caller factors (SourceMiss), the rest wait for its result (SourceShared).
// The returned entry's A is a bit for bit — an entry or a flight that holds
// key for another matrix is a counted collision, and the request resolves
// under the next salted name (so Entry.Key, not key, is what addresses the
// result afterwards). With every name taken the matrix is factored and
// answered uncached: the entry has no key and lives as long as its holder.
func (c *FactorCache) GetOrFactor(key string, a *tcqr.Matrix, cfg tcqr.Config) (*Entry, Source, error) {
	lead := &flight{a: a, done: make(chan struct{})}
	name, e, fl := c.resolve(key, a, lead)
	switch {
	case e != nil:
		return e, SourceHit, nil
	case name == "":
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		c.factor(lead, "", cfg)
		return lead.entry, SourceMiss, lead.err
	case fl != lead:
		<-fl.done
		return fl.entry, SourceShared, fl.err
	}

	// Leader path: factor outside the lock (this is the expensive call the
	// whole cache exists to amortize).
	c.factor(lead, name, cfg)
	c.mu.Lock()
	delete(c.inflight, name)
	if lead.entry != nil {
		c.insertLocked(lead.entry)
	}
	c.mu.Unlock()
	close(lead.done)
	if lead.entry != nil && c.spill != nil {
		c.spill.Enqueue(lead.entry)
	}
	return lead.entry, SourceMiss, lead.err
}

// factor runs fl's factorization and fills in its entry, keyed name, or its
// error. A panicking backend is converted to an error rather than unwinding:
// the flight must always resolve, or every singleflight follower parked on
// fl.done would hang forever.
func (c *FactorCache) factor(fl *flight, name string, cfg tcqr.Config) {
	defer func() {
		if r := recover(); r != nil {
			fl.err = fmt.Errorf("serve: panic during factorize: %v", r)
		}
	}()
	// Failpoint: a panic here is recovered into fl.err exactly like a
	// panicking backend, an error poisons this flight only (the next
	// request retries the factorization — errors are never cached).
	if err := faultinject.Fire(siteCacheFactorize); err != nil {
		fl.err = err
		return
	}
	f, err := c.backend.Factorize(fl.a, cfg)
	if err != nil {
		fl.err = err
		return
	}
	fl.entry = &Entry{Key: name, A: fl.a, F: f, Config: cfg}
	fl.entry.bytes = fl.entry.sizeBytes()
}

// BeginUpdate returns the newest epoch of key's series and latches the
// series against concurrent updates (they serialize here; solves are never
// blocked). The caller must finish with exactly one of PublishUpdate or
// AbortUpdate, which release the latch; until then the evictor passes over
// the returned entry, because evicting it would drop the latch with the
// series record.
func (c *FactorCache) BeginUpdate(key string) (*Entry, error) {
	base := baseKey(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		s := c.series[base]
		if s == nil || s.current == nil {
			return nil, fmt.Errorf("no cached factorization for key %q", key)
		}
		if !s.updating {
			s.updating = true
			return s.current, nil
		}
		c.upd.Wait()
	}
}

// PublishUpdate atomically publishes the updated factorization as the next
// epoch of old's series and drops old from the index: the new entry becomes
// the target of every subsequent bare-key lookup, while requests that
// already resolved old keep reading it. The new entry is spilled as an
// update of old's epoch: a delta record on the series' log when old is its
// last record (spill.go). Returns the new entry.
func (c *FactorCache) PublishUpdate(old *Entry, a *tcqr.Matrix, f *tcqr.Factorization) *Entry {
	base := baseKey(old.Key)
	ne := &Entry{
		Key:    versionedKey(base, old.Epoch+1),
		Epoch:  old.Epoch + 1,
		A:      a,
		F:      f,
		Config: old.Config,
	}
	ne.bytes = ne.sizeBytes()
	c.mu.Lock()
	// The latch is still held, so the series record survives the removal.
	if c.entries[old.Key] == old {
		c.removeLocked(old)
		c.retired++
	}
	c.insertLocked(ne)
	c.unlatchLocked(base)
	c.updates++
	c.mu.Unlock()
	c.upd.Broadcast()
	if c.spill != nil {
		c.spill.EnqueueUpdate(ne, old.Epoch)
	}
	return ne
}

// AbortUpdate releases the series latch after a failed update; the current
// epoch stays published.
func (c *FactorCache) AbortUpdate(old *Entry) {
	c.mu.Lock()
	c.unlatchLocked(baseKey(old.Key))
	c.mu.Unlock()
	c.upd.Broadcast()
}

// unlatchLocked clears base's update latch. A series record with no entry
// left (Reset emptied the index mid-update) existed only to hold the latch.
func (c *FactorCache) unlatchLocked(base string) {
	s := c.series[base]
	if s == nil {
		return
	}
	s.updating = false
	if s.current == nil {
		delete(c.series, base)
	}
}

// AdoptRewarmed inserts an entry loaded from the disk spill tier (daemon
// restart). It counts neither a hit nor a miss, and a stale epoch (older
// than one already adopted for the same base) is skipped rather than
// published over it.
func (c *FactorCache) AdoptRewarmed(e *Entry) bool {
	base := baseKey(e.Key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.series[base]; s != nil && s.current != nil && s.current.Epoch >= e.Epoch {
		return false
	}
	if cur := c.entries[e.Key]; cur != nil {
		return false
	}
	e.bytes = e.sizeBytes()
	c.insertLocked(e)
	c.rewarmed++
	return true
}

// insertLocked adds an entry to the index, the LRU list, and its series,
// then evicts past the entry/byte bounds. c.mu must be held.
func (c *FactorCache) insertLocked(e *Entry) {
	if cur, ok := c.entries[e.Key]; ok {
		// A racing insert for the same key already landed; keep the existing
		// entry current rather than duplicating.
		c.lru.moveFront(cur)
		return
	}
	c.entries[e.Key] = e
	c.lru.pushFront(e)
	c.count++
	c.bytes += e.bytes
	base := baseKey(e.Key)
	s := c.series[base]
	if s == nil {
		s = &series{}
		c.series[base] = s
	}
	// The series moves forwards only: re-factorizing a superseded epoch 0
	// caches it under its bare key beside base@N, for content-keyed requests,
	// without rolling by-key readers back.
	if s.current == nil || e.Epoch > s.current.Epoch {
		s.current = e
	}
	for c.count > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		// Never evict the entry being inserted (a single entry above the byte
		// budget stays resident; the alternative is caching nothing) nor the
		// entry an in-flight update was begun on (its series record holds the
		// update latch): the cache runs over its bound until the next insert
		// rather than letting a second update start beside the first.
		victim := c.lru.tail
		for victim != nil && (victim == e || c.updatingLocked(victim)) {
			victim = victim.prev
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
		c.evicted++
		if c.spill != nil {
			c.spill.Remove(victim)
		}
	}
}

// updatingLocked reports whether e is the entry an in-flight update of its
// series was begun on.
func (c *FactorCache) updatingLocked(e *Entry) bool {
	s := c.series[baseKey(e.Key)]
	return s != nil && s.updating && s.current == e
}

// removeLocked detaches an entry from the index, list, and series (the
// caller counts it as an eviction, and removes its spill file, or as a
// retirement, whose file waits for the successor's); what the entry's
// holders read is not touched. c.mu must be held.
func (c *FactorCache) removeLocked(e *Entry) {
	delete(c.entries, e.Key)
	c.lru.remove(e)
	c.count--
	c.bytes -= e.bytes
	base := baseKey(e.Key)
	if s := c.series[base]; s != nil && s.current == e {
		// By-key readers fall back to a resident epoch-0 sibling (nil when
		// there is none). The record outlives its last entry only while an
		// update holds its latch: PublishUpdate installs the successor next.
		s.current = c.entries[base]
		if s.current == nil && !s.updating {
			delete(c.series, base)
		}
	}
}

// Reset empties the cache (benchmarks use it to measure the cold path).
// Counters other than Entries/Bytes are preserved; the spill tier is left
// untouched, and so is the latch of a series with an update in flight.
func (c *FactorCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		delete(c.entries, e.Key)
		c.lru.remove(e)
	}
	for base, s := range c.series {
		s.current = nil
		if !s.updating {
			delete(c.series, base)
		}
	}
	c.count = 0
	c.bytes = 0
}

// Stats returns a snapshot of the cache counters.
func (c *FactorCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:            c.count,
		Bytes:              c.bytes,
		Hits:               c.hits,
		Misses:             c.misses,
		Evictions:          c.evicted,
		SingleflightShared: c.shared,
		Updates:            c.updates,
		Retired:            c.retired,
		Rewarmed:           c.rewarmed,
		KeyCollisions:      c.collided,
	}
}
