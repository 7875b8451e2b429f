package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tcqr"
)

// --- the reference model ----------------------------------------------------
//
// cacheModel states what FactorCache promises, with no list surgery and no
// series records: a recency-ordered slice of entries, a "current entry" per
// base key, and a set of latched base keys that nothing but Publish/Abort
// ever clears. TestCacheMatchesReferenceModel drives both with the same
// seeded operations and compares them after every step.

type modelEntry struct {
	key   string
	epoch uint64
	bytes int64
	real  *Entry // identity: which published entry the cache must hold here
}

type cacheModel struct {
	maxEntries int
	maxBytes   int64
	lru        []*modelEntry          // most recently used first
	current    map[string]*modelEntry // base key -> what a bare key and an update resolve
	updating   map[string]bool        // base keys with an update in flight
	stats      CacheStats
}

func (m *cacheModel) find(key string) *modelEntry {
	for _, e := range m.lru {
		if e.key == key {
			return e
		}
	}
	return nil
}

func (m *cacheModel) lookup(key string, exact bool) *modelEntry {
	if cur := m.current[key]; cur != nil && !exact {
		return cur
	}
	return m.find(key)
}

func (m *cacheModel) unlink(e *modelEntry) {
	for i, x := range m.lru {
		if x == e {
			m.lru = append(m.lru[:i:i], m.lru[i+1:]...)
			return
		}
	}
}

func (m *cacheModel) touch(e *modelEntry) {
	m.unlink(e)
	m.lru = append([]*modelEntry{e}, m.lru...)
}

func (m *cacheModel) insert(e *modelEntry) {
	if old := m.find(e.key); old != nil {
		m.touch(old)
		return
	}
	m.lru = append([]*modelEntry{e}, m.lru...)
	m.stats.Entries++
	m.stats.Bytes += e.bytes
	if cur := m.current[baseKey(e.key)]; cur == nil || e.epoch > cur.epoch {
		m.current[baseKey(e.key)] = e
	}
	for m.stats.Entries > m.maxEntries || (m.maxBytes > 0 && m.stats.Bytes > m.maxBytes) {
		var victim *modelEntry
		for i := len(m.lru) - 1; i >= 0 && victim == nil; i-- {
			c, base := m.lru[i], baseKey(m.lru[i].key)
			if c != e && !(m.updating[base] && m.current[base] == c) {
				victim = c
			}
		}
		if victim == nil {
			return
		}
		m.remove(victim)
		m.stats.Evictions++
	}
}

func (m *cacheModel) remove(e *modelEntry) {
	m.unlink(e)
	m.stats.Entries--
	m.stats.Bytes -= e.bytes
	if base := baseKey(e.key); m.current[base] == e {
		delete(m.current, base)
		if sibling := m.find(base); sibling != nil {
			m.current[base] = sibling
		}
	}
}

// sameContent is the model's own statement of "the same matrix": one shape,
// the same bits in every element (the matrices here are tight).
func sameContent(a, b *tcqr.Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.EqualFunc(a.Data, b.Data, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// getOrFactor is the content-keyed lookup: the first of key's salted names
// that holds a (a hit) or nothing (a miss: the caller inserts what the cache
// factored there); every name held by another matrix on the way is a
// collision, and with all of them taken the matrix is factored uncached
// (name "").
func (m *cacheModel) getOrFactor(key string, a *tcqr.Matrix) (name string, hit *modelEntry) {
	for salt := 0; salt <= maxKeySalt; salt++ {
		name := saltedKey(key, salt)
		me := m.find(name)
		if me == nil {
			m.stats.Misses++
			return name, nil
		}
		if sameContent(me.real.A, a) {
			m.touch(me)
			m.stats.Hits++
			return name, me
		}
		m.stats.KeyCollisions++
	}
	m.stats.Misses++
	return "", nil
}

func (m *cacheModel) reset() {
	m.lru, m.current = nil, map[string]*modelEntry{}
	m.stats.Entries, m.stats.Bytes = 0, 0
}

// --- the driver -------------------------------------------------------------

// stubBackend factors nothing: R is the narrowed input's leading block and,
// as from every Backend, there is no Q. The cache never looks inside a
// factorization, only at its size. The embedded nil Backend panics on the
// solve calls the cache never makes.
type stubBackend struct{ Backend }

func (stubBackend) Factorize(a *tcqr.Matrix, cfg tcqr.Config) (*tcqr.Factorization, error) {
	r := tcqr.NewMatrix32(a.Cols, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for i := range r.Col(j) {
			r.Col(j)[i] = float32(a.At(i, j))
		}
	}
	return &tcqr.Factorization{R: r}, nil
}

// entryBits hashes everything a holder of e can read: the key, the epoch and
// the bit patterns of A, R and the column scales.
func entryBits(e *Entry) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%x|%x", e.Key, e.Epoch, e.A.Hash64(), e.F.R.Hash64())
	for _, s := range e.F.ColumnScales {
		fmt.Fprintf(h, "|%x", math.Float32bits(s))
	}
	return h.Sum64()
}

// TestCacheMatchesReferenceModel runs seeded random operations — content-keyed
// GetOrFactor (one time in five with a matrix the key was not derived from: a
// collision), Get by bare and by versioned key, BeginUpdate followed later
// by PublishUpdate or AbortUpdate, Reset, and restarts (Reset, then
// AdoptRewarmed in the spill tier's newest-first order, stale siblings
// included) — against FactorCache and the model above, under an entry bound,
// a byte bound, and both. After every step the two must agree on Stats, on
// the whole recency order (so on every eviction victim), on what every key
// resolves to exactly and by key — salted names included — and on which
// series are latched; GetOrFactor must answer with an entry that holds the
// matrix it was handed, under the name the model expects, a bare key must
// resolve the newest resident epoch of its series, and every entry a caller
// still holds must hash as it did when the caller got it.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, tc := range []struct {
		seed       int64
		maxEntries int
		maxBytes   int64
	}{{1, 3, 0}, {2, 64, 1500}, {3, 4, 1200}} {
		t.Run(fmt.Sprintf("seed=%d", tc.seed), func(t *testing.T) {
			runCacheModel(t, rand.New(rand.NewSource(tc.seed)), tc.maxEntries, tc.maxBytes, 2000)
		})
	}
}

func runCacheModel(t *testing.T, rng *rand.Rand, maxEntries int, maxBytes int64, steps int) {
	const n = 2
	var cfg tcqr.Config
	be := stubBackend{}
	randMatrix := func(rows int) *tcqr.Matrix {
		a := tcqr.NewMatrix(rows, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		return a
	}
	newEntry := func(key string, epoch uint64, a *tcqr.Matrix) *Entry {
		f, _ := be.Factorize(a, cfg)
		return &Entry{Key: key, Epoch: epoch, A: a, F: f, Config: cfg}
	}
	// The model sizes an entry from the shape alone: A and R, no Q.
	modelOf := func(e *Entry) *modelEntry {
		return &modelEntry{key: e.Key, epoch: e.Epoch, bytes: int64(e.A.Rows*n*8 + n*n*4), real: e}
	}

	var mats []*tcqr.Matrix
	var keys []string
	for _, rows := range []int{4, 6, 10, 16, 24, 40} {
		mats = append(mats, randMatrix(rows))
		keys = append(keys, CacheKey(mats[len(mats)-1], cfg))
	}
	topEpoch := make([]uint64, len(mats)) // highest epoch ever published per base
	// Matrices no key was derived from, some the shape of one that was, and
	// every name a lookup can land on.
	colliders := []*tcqr.Matrix{randMatrix(4), randMatrix(4), randMatrix(6), randMatrix(7), randMatrix(16)}
	var names []string
	for _, k := range keys {
		for salt := 0; salt <= maxKeySalt; salt++ {
			names = append(names, saltedKey(k, salt))
		}
	}

	c := NewFactorCache(maxEntries, be)
	c.SetByteBudget(maxBytes)
	m := &cacheModel{maxEntries: maxEntries, maxBytes: maxBytes,
		current: map[string]*modelEntry{}, updating: map[string]bool{}}

	type held struct {
		e    *Entry
		bits uint64
	}
	var holding []held
	hold := func(e *Entry) {
		h := held{e, entryBits(e)}
		if len(holding) < 24 {
			holding = append(holding, h)
		} else {
			holding[rng.Intn(len(holding))] = h
		}
	}
	var inflight []*Entry // entries BeginUpdate returned, not yet published or aborted

	check := func(step int, op string) {
		t.Helper()
		if got := c.Stats(); got != m.stats {
			t.Fatalf("step %d (%s): Stats\n got %+v\nwant %+v", step, op, got, m.stats)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		i := 0
		for e := c.lru.head; e != nil; e, i = e.next, i+1 {
			if i >= len(m.lru) || m.lru[i].real != e {
				t.Fatalf("step %d (%s): recency position %d holds %s; the model disagrees", step, op, i, e.Key)
			}
			if c.entries[e.Key] != e {
				t.Fatalf("step %d (%s): %s is listed but not indexed", step, op, e.Key)
			}
		}
		if i != len(m.lru) || len(c.entries) != len(m.lru) {
			t.Fatalf("step %d (%s): %d listed, %d indexed, model holds %d", step, op, i, len(c.entries), len(m.lru))
		}
		for _, base := range names {
			for _, exact := range []bool{true, false} {
				var want *Entry
				if me := m.lookup(base, exact); me != nil {
					want = me.real
				}
				if got := c.lookupLocked(base, exact); got != want {
					t.Fatalf("step %d (%s): lookup(%s, exact=%v) = %v, model says %v", step, op, base, exact, got, want)
				}
			}
			if cur := c.lookupLocked(base, false); cur != nil {
				for _, e := range c.entries {
					if baseKey(e.Key) == base && e.Epoch > cur.Epoch {
						t.Fatalf("step %d (%s): bare key %s resolves epoch %d while %s is resident", step, op, base, cur.Epoch, e.Key)
					}
				}
			}
			if s := c.series[base]; (s != nil && s.updating) != m.updating[base] {
				t.Fatalf("step %d (%s): series %s latched=%v; the model disagrees", step, op, base, !m.updating[base])
			}
		}
		for _, h := range holding {
			if got := entryBits(h.e); got != h.bits {
				t.Fatalf("step %d (%s): held entry %s changed: bits %x, were %x", step, op, h.e.Key, got, h.bits)
			}
		}
	}

	for step := 0; step < steps; step++ {
		i := rng.Intn(len(mats))
		base := keys[i]
		var op string
		switch r := rng.Intn(100); {
		case r < 30:
			a := mats[i]
			if rng.Intn(5) == 0 {
				a = colliders[rng.Intn(len(colliders))]
			}
			op = fmt.Sprintf("GetOrFactor %s with %dx%d", base, a.Rows, a.Cols)
			e, src, err := c.GetOrFactor(base, a, cfg)
			if err != nil {
				t.Fatalf("step %d (%s): %v", step, op, err)
			}
			name, me := m.getOrFactor(base, a)
			if me == nil && name != "" {
				m.insert(modelOf(e))
			}
			if (src == SourceHit) != (me != nil) || (me != nil && e != me.real) {
				t.Fatalf("step %d (%s): got %s (source %d); the model disagrees", step, op, e.Key, src)
			}
			if e.Key != name || e.A != a {
				t.Fatalf("step %d (%s): answered from %q holding %dx%d, want %q", step, op, e.Key, e.A.Rows, e.A.Cols, name)
			}
			hold(e)
		case r < 52:
			key := versionedKey(base, uint64(rng.Intn(int(topEpoch[i])+2)))
			op = "Get " + key
			e, ok := c.Get(key)
			me := m.lookup(key, false)
			if me != nil {
				m.touch(me)
				m.stats.Hits++
			}
			if ok != (me != nil) || (ok && e != me.real) {
				t.Fatalf("step %d (%s): got %v %v; the model disagrees", step, op, e, ok)
			}
			if ok {
				hold(e)
			}
		case r < 66:
			if m.updating[base] {
				continue // the real call would block, correctly
			}
			key := versionedKey(base, uint64(rng.Intn(int(topEpoch[i])+2)))
			op = "BeginUpdate " + key
			old, err := c.BeginUpdate(key)
			cur := m.current[base]
			if (err == nil) != (cur != nil) || (err == nil && old != cur.real) {
				t.Fatalf("step %d (%s): got %v, %v; the model disagrees", step, op, old, err)
			}
			if err == nil {
				m.updating[base] = true
				inflight = append(inflight, old)
				hold(old)
			}
		case r < 88:
			if len(inflight) == 0 {
				continue
			}
			j := rng.Intn(len(inflight))
			old := inflight[j]
			inflight = append(inflight[:j], inflight[j+1:]...)
			base = baseKey(old.Key)
			delete(m.updating, base)
			if r >= 82 {
				op = "AbortUpdate " + old.Key
				c.AbortUpdate(old)
				break
			}
			op = "PublishUpdate " + old.Key
			a := randMatrix(old.A.Rows + 1 + rng.Intn(3))
			f, _ := be.Factorize(a, cfg)
			ne := c.PublishUpdate(old, a, f)
			if ne.Key != versionedKey(base, old.Epoch+1) || ne.Epoch != old.Epoch+1 {
				t.Fatalf("step %d (%s): published %s epoch %d", step, op, ne.Key, ne.Epoch)
			}
			if me := m.find(old.Key); me != nil && me.real == old {
				m.remove(me)
				m.stats.Retired++
			}
			m.insert(modelOf(ne))
			m.stats.Updates++
			for k := range keys {
				if keys[k] == base && ne.Epoch > topEpoch[k] {
					topEpoch[k] = ne.Epoch
				}
			}
			hold(ne)
		case r < 91:
			op = "Reset"
			c.Reset()
			m.reset()
		default:
			if len(inflight) > 0 {
				continue // a restart has no update in flight
			}
			op = "restart"
			c.Reset()
			m.reset()
			for _, k := range rng.Perm(len(mats))[:1+rng.Intn(3)] {
				for epoch := rng.Intn(4); epoch >= 0; epoch-- {
					a := mats[k]
					if epoch > 0 {
						a = randMatrix(mats[k].Rows + epoch)
					}
					e := newEntry(versionedKey(keys[k], uint64(epoch)), uint64(epoch), a)
					cur := m.current[keys[k]]
					want := (cur == nil || cur.epoch < e.Epoch) && m.find(e.Key) == nil
					if want {
						m.insert(modelOf(e))
						m.stats.Rewarmed++
					}
					if got := c.AdoptRewarmed(e); got != want {
						t.Fatalf("step %d (restart): AdoptRewarmed(%s) = %v, model says %v", step, e.Key, got, want)
					}
					if uint64(epoch) > topEpoch[k] {
						topEpoch[k] = uint64(epoch)
					}
				}
			}
		}
		check(step, op)
	}
	if m.stats.Evictions == 0 || m.stats.Retired == 0 || m.stats.Rewarmed == 0 || m.stats.Hits == 0 || m.stats.KeyCollisions == 0 {
		t.Fatalf("the run exercised too little: %+v", m.stats)
	}
}
