package core

import "time"

// Queue is a coroutine-aware FIFO: producers push under the baton,
// consumers wait without busy-polling. It packages the
// queue-plus-signal pattern that message-loop designs hand-roll (the
// SyncRSM baseline's region thread is the cautionary version).
type Queue[T any] struct {
	items Deque[T]
	sig   *SignalEvent
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] {
	return &Queue[T]{sig: NewSignalEvent()}
}

// Push appends v and wakes one round of waiters. Baton context only.
func (q *Queue[T]) Push(v T) {
	q.items.PushBack(v)
	q.sig.Set()
}

// TryPop removes the head if present.
func (q *Queue[T]) TryPop() (T, bool) { return q.items.PopFront() }

// PopWait blocks the coroutine until an item is available. Returns
// ErrStopped on shutdown.
func (q *Queue[T]) PopWait(co *Coroutine) (T, error) {
	for {
		if v, ok := q.TryPop(); ok {
			return v, nil
		}
		q.sig = NewSignalEvent() // re-arm for the next Push
		if err := co.Wait(q.sig); err != nil {
			var zero T
			return zero, err
		}
	}
}

// DrainWait blocks until at least one item is available, then removes
// and returns everything queued — the batch-consumption pattern.
func (q *Queue[T]) DrainWait(co *Coroutine) ([]T, error) {
	for {
		if q.items.Len() > 0 {
			return q.items.Drain(), nil
		}
		q.sig = NewSignalEvent()
		if err := co.Wait(q.sig); err != nil {
			return nil, err
		}
	}
}

// DrainWaitTimeout is DrainWait bounded by a deadline: it returns
// (batch, WaitReady) when items arrive, (nil, WaitTimeout) when the
// timeout passes with an empty queue, and (nil, WaitStopped) on
// shutdown.
func (q *Queue[T]) DrainWaitTimeout(co *Coroutine, timeout time.Duration) ([]T, WaitResult) {
	deadline := time.Now().Add(timeout)
	for {
		if q.items.Len() > 0 {
			return q.items.Drain(), WaitReady
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, WaitTimeout
		}
		q.sig = NewSignalEvent()
		switch co.WaitFor(q.sig, remain) {
		case WaitStopped:
			return nil, WaitStopped
		case WaitTimeout:
			return nil, WaitTimeout
		}
	}
}

// Len returns the queued item count.
func (q *Queue[T]) Len() int { return q.items.Len() }
