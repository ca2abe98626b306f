package sim

// Window models the host's bounded set of in-flight operations. Two limits
// apply simultaneously:
//
//   - depth, the queue-entry limit (NCQ slots, driver tags); and
//   - maxBytes, the in-flight byte limit — for a synchronous POSIX reader
//     this is the kernel's readahead window, the knob the paper's "ext4-L"
//     configuration turns up.
//
// A new operation may only issue once both limits hold. Completion times are
// tracked in a min-heap so admission order is by earliest completion,
// independent of issue order. The heap is hand-rolled over the concrete
// element type: container/heap would box every element into an interface,
// allocating once per admitted operation on the replay hot path.
type Window struct {
	depth    int
	maxBytes int64
	bytes    int64
	heap     []inflightOp
}

// NewWindow returns a window admitting up to depth concurrent operations and
// (when maxBytes > 0) at most maxBytes of outstanding data. A depth <= 0 is
// treated as depth 1 (fully synchronous).
func NewWindow(depth int, maxBytes int64) *Window {
	if depth <= 0 {
		depth = 1
	}
	// The heap never exceeds the queue depth (Admit pops below depth before
	// every Complete push), so sizing the backing array up front removes the
	// growth reallocations from the replay hot path. Absurd depths are
	// clamped; push still grows on demand past the clamp.
	pre := depth
	if pre > 4096 {
		pre = 4096
	}
	return &Window{depth: depth, maxBytes: maxBytes, heap: make([]inflightOp, 0, pre)}
}

// Depth reports the configured queue depth.
func (w *Window) Depth() int { return w.depth }

// InFlightAt reports how many tracked operations are still executing at
// instant t — admitted with a completion time strictly after t. Because
// retirement is lazy, the heap can hold operations that finished before t;
// those are excluded, so telemetry sampling at a past boundary sees the queue
// depth that actually held then. Operations already retired by an Admit are
// gone and cannot be reconstructed; sampling therefore reads a lower bound,
// exact whenever it runs before the admissions that retire them.
func (w *Window) InFlightAt(t Time) int {
	n := 0
	for _, op := range w.heap {
		if op.end > t {
			n++
		}
	}
	return n
}

// Admit returns the earliest time an operation of `size` bytes arriving at
// 'at' may issue. Call Complete exactly once per Admit. An operation larger
// than maxBytes issues alone (when the window is otherwise empty).
func (w *Window) Admit(at Time, size int64) Time {
	t := at
	for len(w.heap) > 0 &&
		(len(w.heap) >= w.depth ||
			(w.maxBytes > 0 && w.bytes+size > w.maxBytes)) {
		op := w.pop()
		w.bytes -= op.size
		t = MaxTime(t, op.end)
	}
	w.bytes += size
	return t
}

// Complete records the completion time of the most recently admitted
// operation. The size must match the Admit call.
func (w *Window) Complete(end Time, size int64) {
	w.push(inflightOp{end: end, size: size})
}

// Drain returns the completion time of the last operation to finish and
// empties the window.
func (w *Window) Drain() Time {
	var last Time
	for len(w.heap) > 0 {
		last = MaxTime(last, w.pop().end)
	}
	w.bytes = 0
	return last
}

type inflightOp struct {
	end  Time
	size int64
}

// push inserts op, maintaining the min-heap ordering on end time.
func (w *Window) push(op inflightOp) {
	w.heap = append(w.heap, op)
	h := w.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].end <= h[i].end {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// pop removes and returns the earliest-completing operation.
func (w *Window) pop() inflightOp {
	h := w.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	w.heap = h[:n]
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && h[l].end < h[small].end {
			small = l
		}
		if r := 2*i + 2; r < n && h[r].end < h[small].end {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}
