package core

// Deque is a head-indexed FIFO over one slice: PopFront advances an
// index instead of shifting the tail down, so a pop is O(1) at any
// depth, and the dead prefix is reclaimed when the slice would otherwise
// grow. The live items stay contiguous, which keeps whole-queue
// operations (Items, Drain, Filter) plain slice code. Not safe for
// concurrent use; the zero value is an empty deque.
type Deque[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (d *Deque[T]) Len() int { return len(d.items) - d.head }

// PushBack appends v.
func (d *Deque[T]) PushBack(v T) {
	if d.head > 0 && len(d.items) == cap(d.items) && d.head >= len(d.items)/2 {
		// At least half the slice is popped slots: slide the live items
		// down instead of growing. Each slide of n items follows at
		// least n pops, so pushes stay amortised O(1).
		n := copy(d.items, d.items[d.head:])
		clear(d.items[n:])
		d.items, d.head = d.items[:n], 0
	}
	d.items = append(d.items, v)
}

// PopFront removes and returns the oldest item.
func (d *Deque[T]) PopFront() (T, bool) {
	var zero T
	if d.head == len(d.items) {
		return zero, false
	}
	v := d.items[d.head]
	d.items[d.head] = zero // do not pin what the caller now owns
	d.head++
	if d.head == len(d.items) {
		d.items, d.head = d.items[:0], 0
	}
	return v, true
}

// Items returns the queued items, oldest first, as a view that is valid
// until the next PushBack, PopFront, Drain or Filter.
func (d *Deque[T]) Items() []T { return d.items[d.head:] }

// Drain removes and returns everything queued; the caller owns the
// returned slice.
func (d *Deque[T]) Drain() []T {
	out := d.items[d.head:]
	d.items, d.head = nil, 0
	return out
}

// Filter keeps, in order, the items for which keep returns true. keep
// must not touch the deque.
func (d *Deque[T]) Filter(keep func(T) bool) {
	kept := d.items[:0]
	for _, v := range d.items[d.head:] {
		if keep(v) {
			kept = append(kept, v)
		}
	}
	clear(d.items[len(kept):])
	d.items, d.head = kept, 0
}
