package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"tcqr/internal/faultinject"
)

// hintRetryBudget bounds delivery attempts per hint. It is deliberately
// generous: a hint's owner being down is the normal case at enqueue time
// (that is why the hint exists), and attempts while the owner stays down do
// not consume the budget — only failed deliveries to a reachable owner do.
const hintRetryBudget = 64

// hint is one queued handoff: a frame that re-homes a key to its owner.
type hint struct {
	owner    Member
	path     string
	frame    []byte
	attempts int
}

// handoffQueue buffers hints and delivers them when their owner probes Up.
// Delivery is paced by the node's probe interval; kick() forces an immediate
// pass (drain, leave).
type handoffQueue struct {
	n     *Node
	cap   int
	mu    sync.Mutex
	q     []hint
	kickC chan struct{}
}

func newHandoffQueue(n *Node, cap int) *handoffQueue {
	return &handoffQueue{n: n, cap: cap, kickC: make(chan struct{}, 1)}
}

// add queues one hint, dropping (and counting) when the queue is full. The
// queue keeps frame itself, not a copy: the caller must not write to it again
// (Replicate's goroutine already holds it past the caller's return, so no
// caller recycles it).
func (h *handoffQueue) add(owner Member, path string, frame []byte) {
	h.mu.Lock()
	if len(h.q) >= h.cap {
		h.mu.Unlock()
		h.n.m.handoffDropped.Inc()
		return
	}
	h.q = append(h.q, hint{owner: owner, path: path, frame: frame})
	h.mu.Unlock()
	h.n.m.handoffQueued.Inc()
}

// kick requests an immediate delivery pass.
func (h *handoffQueue) kick() {
	select {
	case h.kickC <- struct{}{}:
	default:
	}
}

func (h *handoffQueue) loop() {
	defer h.n.done.Done()
	t := time.NewTicker(h.n.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-h.n.stop:
			return
		case <-t.C:
		case <-h.kickC:
		}
		h.deliverPass(context.Background())
	}
}

// deliverPass attempts every queued hint once. Hints whose owner is not Up
// stay queued without consuming retry budget; failed deliveries to an Up
// owner re-queue until the budget runs out.
func (h *handoffQueue) deliverPass(ctx context.Context) {
	h.mu.Lock()
	batch := h.q
	h.q = nil
	h.mu.Unlock()
	var requeue []hint
	for _, ht := range batch {
		if h.n.PeerState(ht.owner.ID) != StateUp {
			requeue = append(requeue, ht)
			continue
		}
		if err := h.deliver(ctx, ht); err != nil {
			ht.attempts++
			if ht.attempts >= hintRetryBudget {
				h.n.m.handoffDropped.Inc()
				if h.n.log != nil {
					h.n.log.Warn("handoff hint dropped", slog.String("owner", ht.owner.ID),
						slog.Int("attempts", ht.attempts), slog.String("err", err.Error()))
				}
				continue
			}
			requeue = append(requeue, ht)
			continue
		}
		h.n.m.handoffDelivered.Inc()
	}
	if len(requeue) > 0 {
		h.mu.Lock()
		h.q = append(h.q, requeue...)
		h.mu.Unlock()
	}
}

func (h *handoffQueue) deliver(ctx context.Context, ht hint) error {
	if err := faultinject.Fire(SiteHandoff); err != nil {
		return err
	}
	dctx, cancel := context.WithTimeout(ctx, replicateTimeout)
	defer cancel()
	res, err := h.n.post(dctx, ht.owner, ht.path, ht.frame, false)
	if err != nil {
		return err
	}
	if res.Status/100 != 2 {
		return fmt.Errorf("peer returned status %d", res.Status)
	}
	return nil
}

// drain runs delivery passes until the queue empties or ctx expires,
// returning the hints left undelivered.
func (h *handoffQueue) drain(ctx context.Context) int {
	for {
		h.deliverPass(ctx)
		h.mu.Lock()
		left := len(h.q)
		h.mu.Unlock()
		if left == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return left
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// pending reports the queued hint count (tests).
func (h *handoffQueue) pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.q)
}
