package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tcqr"
	"tcqr/internal/faultinject"
)

// spillModel is the reference the spill tier is held to: per series, the
// newest durable entry, and the byte lengths of its log's base and of all
// its records, from which it predicts which update goes on as a delta.
type spillModel struct {
	durable map[string]*Entry // base key -> the epoch a restart must return
	baseLen map[string]int64
	size    map[string]int64
	armed   bool // the next write is torn by the failpoint
}

// modelBaseLen is the byte length of e's base record: header, meta padded to
// 8, A, R, the scales and the checksum.
func modelBaseLen(e *Entry) int64 {
	meta, err := json.Marshal(spillMeta{Key: e.Key, Epoch: e.Epoch, Rows: e.A.Rows, Cols: e.A.Cols,
		Reorthogonalized: e.F.Reorthogonalized, HasScales: len(e.F.ColumnScales) > 0, Config: e.Config})
	if err != nil {
		panic(err)
	}
	m, n := int64(e.A.Rows), int64(e.A.Cols)
	return 24 + (int64(len(meta))+7)/8*8 + 8*m*n + 4*n*n + 4*int64(len(e.F.ColumnScales)) + 4
}

// write is what the model expects of a spilled e: an update of epoch parent
// (update) goes on as a delta when the durable entry is that parent, A's row
// count moves and the records after the base stay within the base's bytes;
// otherwise, unless e is a first publish of an epoch already durable, a base.
func (m *spillModel) write(e *Entry, update bool, parent uint64) {
	base := baseKey(e.Key)
	d := m.durable[base]
	if d != nil && !update && d.Epoch >= e.Epoch {
		return
	}
	var deltaLen int64
	delta := d != nil && update && parent == d.Epoch && e.Epoch == parent+1 && e.A.Rows != d.A.Rows
	if delta {
		cols, added := int64(e.A.Cols), int64(max(e.A.Rows-d.A.Rows, 0))
		deltaLen = 40 + 8*added*cols + 4*cols*cols + 4*int64(len(e.F.ColumnScales)) + 4
		delta = m.size[base]-m.baseLen[base]+deltaLen <= m.baseLen[base]
	}
	torn := m.armed
	m.armed = false
	switch {
	case torn && delta:
		// The torn record is the log's tail: the series stays where it was.
	case torn:
		delete(m.durable, base) // a torn base replaced the log
	case delta:
		m.durable[base] = e
		m.size[base] += deltaLen
	default:
		m.durable[base] = e
		m.baseLen[base] = modelBaseLen(e)
		m.size[base] = m.baseLen[base]
	}
}

// remove is eviction of e: its series' log goes unless it holds a newer
// epoch than e's.
func (m *spillModel) remove(e *Entry) {
	if d := m.durable[baseKey(e.Key)]; d != nil && d.Epoch <= e.Epoch {
		delete(m.durable, baseKey(e.Key))
	}
}

// TestSpillMatchesReferenceModel drives the tier through seeded random
// sequences of publishes, appends, downdates, fallback refactorizations
// (an update whose factor carries scales and the reorthogonalized flag),
// evictions (of a series' newest entry, or of its stale epoch 0), updates
// shed by a full queue, writes the failpoint tears, and restarts. After each
// restart Rewarm must return exactly the model's newest durable epoch per
// series — A equal by Float64bits, R and the scales by Float32bits, key,
// epoch, config and flags — and BytesOnDisk must be the sum of the logs'
// sizes.
func TestSpillMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkSpillModel(t, seed, 300) })
	}
}

func checkSpillModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	// A worker-less tier with a one-op queue: every op is enqueued, then
	// drained on this goroutine, and a queue held full sheds the next one.
	open := func() *SpillTier {
		sp, err := newSpillTier(dir, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	sp := open()
	// A scrape reads the counters while the writer works (make check runs
	// this test under the race detector).
	scraping := make(chan *SpillTier)
	defer close(scraping)
	go func() {
		for tier := range scraping {
			tier.Stats()
		}
	}()

	bits := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.Float64frombits(0x7ff0000000000001 + rng.Uint64()%1000) // NaN payloads
		}
		return rng.NormFloat64()
	}
	bits32 := func() float32 {
		if rng.Intn(8) == 0 {
			return math.Float32frombits(rng.Uint32())
		}
		return float32(rng.NormFloat64())
	}
	matrix := func(m, n int) *tcqr.Matrix {
		a := tcqr.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = bits()
		}
		return a
	}
	factor := func(n int, refactorized bool) *tcqr.Factorization {
		f := &tcqr.Factorization{R: tcqr.NewMatrix32(n, n), Reorthogonalized: refactorized && rng.Intn(2) == 0}
		for i := range f.R.Data {
			f.R.Data[i] = bits32()
		}
		if refactorized || rng.Intn(4) == 0 {
			f.ColumnScales = make([]float32, n)
			for i := range f.ColumnScales {
				f.ColumnScales[i] = bits32()
			}
		}
		return f
	}

	// The series, their epoch-0 entries, and what the cache holds of each.
	const nSeries = 3
	origin := make([]*Entry, nSeries)
	live := make([]*Entry, nSeries)
	for s := range origin {
		n := 3 + s
		origin[s] = &Entry{
			Key:    fmt.Sprintf("mmodel%d-e00-p0-c%d-r00-h%d", s, 16*s, s%2),
			A:      matrix(n+2+rng.Intn(4), n),
			F:      factor(n, false),
			Config: tcqr.Config{Cutoff: 16 * s, OnHazard: tcqr.HazardPolicy(s % 2)},
		}
	}
	model := &spillModel{durable: map[string]*Entry{}, baseLen: map[string]int64{}, size: map[string]int64{}}

	enqueue := func(e *Entry, update bool, parent uint64) {
		if update {
			sp.EnqueueUpdate(e, parent)
		} else {
			sp.Enqueue(e)
		}
		scraping <- sp
		sp.drain()
		model.write(e, update, parent)
	}
	restart := func(step int) {
		faultinject.Disarm()
		model.armed = false
		sp = open()
		got := map[string]*Entry{}
		for _, e := range sp.Rewarm() {
			if got[baseKey(e.Key)] != nil {
				t.Fatalf("step %d: two entries of series %s rewarmed", step, baseKey(e.Key))
			}
			got[baseKey(e.Key)] = e
		}
		for s, o := range origin {
			base := o.Key
			want, e := model.durable[base], got[base]
			switch {
			case want == nil && e != nil:
				t.Fatalf("step %d: series %s rewarmed at epoch %d, the model holds nothing durable", step, base, e.Epoch)
			case want != nil && e == nil:
				t.Fatalf("step %d: series %s not rewarmed, the model holds epoch %d", step, base, want.Epoch)
			case want != nil:
				if diff := sameEntryBits(e, want); diff != "" {
					t.Fatalf("step %d: series %s rewarmed %s", step, base, diff)
				}
			}
			live[s] = e
		}
		var onDisk int64
		names, err := filepath.Glob(filepath.Join(dir, "*"+spillExt))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			onDisk += fi.Size()
		}
		if st := sp.Stats(); st.BytesOnDisk != onDisk || st.Files != len(names) {
			t.Fatalf("step %d: the tier accounts %d bytes in %d files, the directory holds %d in %d", step, st.BytesOnDisk, st.Files, onDisk, len(names))
		}
	}

	for step := 0; step < steps; step++ {
		s := rng.Intn(nSeries)
		cur := live[s]
		n := origin[s].A.Cols
		// update publishes the next epoch of cur with A's trailing remove rows
		// dropped and add rows stacked under it.
		update := func(remove, add int, refactorized bool) *Entry {
			var v *tcqr.Matrix
			if add > 0 {
				v = matrix(add, n)
			}
			ne := updated(cur, remove, v, factor(n, refactorized))
			live[s] = ne
			return ne
		}
		switch r := rng.Intn(100); {
		case r < 10 || cur == nil:
			// A first publish, or the content-keyed refactorization of a
			// superseded epoch 0 (the cache keeps the newer epoch current).
			if cur == nil {
				live[s] = origin[s]
			}
			enqueue(origin[s], false, 0)
		case r < 40:
			enqueue(update(0, 1+rng.Intn(4), false), true, cur.Epoch)
		case r < 60 && cur.A.Rows-n >= 1:
			enqueue(update(1+rng.Intn(cur.A.Rows-n), 0, false), true, cur.Epoch)
		case r < 68 && cur.A.Rows-n >= 1:
			enqueue(update(1+rng.Intn(cur.A.Rows-n), 0, true), true, cur.Epoch)
		case r < 76:
			victim := cur
			if rng.Intn(3) == 0 {
				victim = origin[s] // a stale epoch 0 beside a newer one, or the newest
			} else {
				live[s] = nil
			}
			sp.Remove(victim)
			sp.drain()
			model.remove(victim)
		case r < 84:
			// The queue is full: the update is published and its spill shed.
			sp.queue <- spillOp{flush: make(chan struct{})}
			dropped := sp.Stats().Dropped
			sp.EnqueueUpdate(update(0, 1+rng.Intn(3), false), cur.Epoch)
			if sp.Stats().Dropped != dropped+1 {
				t.Fatalf("step %d: a full queue did not shed the update", step)
			}
			sp.drain()
		case r < 92:
			arm(t, fmt.Sprintf("seed=%d;serve.spill.write=error@once=1", seed))
			model.armed = true
		default:
			restart(step)
		}
	}
	restart(steps)
	faultinject.Disarm()
}
