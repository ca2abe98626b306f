package sim

import (
	"testing"
	"testing/quick"
)

func TestWindowDepthOne(t *testing.T) {
	w := NewWindow(1, 0)
	if got := w.Admit(0, 10); got != 0 {
		t.Fatalf("first admit = %v, want 0", got)
	}
	w.Complete(100, 10)
	// Second op must wait for the first's completion.
	if got := w.Admit(5, 10); got != 100 {
		t.Fatalf("second admit = %v, want 100", got)
	}
	w.Complete(200, 10)
}

func TestWindowDepthN(t *testing.T) {
	w := NewWindow(3, 0)
	for i := 0; i < 3; i++ {
		if got := w.Admit(0, 1); got != 0 {
			t.Fatalf("admit %d delayed to %v", i, got)
		}
		w.Complete(Time(10*(i+1)), 1)
	}
	// Fourth waits for the earliest completion (10).
	if got := w.Admit(0, 1); got != 10 {
		t.Fatalf("fourth admit = %v, want 10", got)
	}
	w.Complete(40, 1)
}

func TestWindowByteBound(t *testing.T) {
	w := NewWindow(100, 1000)
	if got := w.Admit(0, 600); got != 0 {
		t.Fatalf("first admit = %v, want 0", got)
	}
	w.Complete(50, 600)
	// 600 + 600 > 1000: must wait for the first to retire.
	if got := w.Admit(0, 600); got != 50 {
		t.Fatalf("second admit = %v, want 50", got)
	}
	w.Complete(80, 600)
}

func TestWindowOversizeOpIssuesAlone(t *testing.T) {
	w := NewWindow(10, 100)
	if got := w.Admit(7, 5000); got != 7 {
		t.Fatalf("oversize op on empty window delayed to %v", got)
	}
	w.Complete(99, 5000)
	// The next op must wait for the oversize one.
	if got := w.Admit(0, 10); got != 99 {
		t.Fatalf("op after oversize = %v, want 99", got)
	}
	w.Complete(120, 10)
}

func TestWindowDrain(t *testing.T) {
	w := NewWindow(4, 0)
	for i := 1; i <= 4; i++ {
		w.Admit(0, 1)
		w.Complete(Time(i*10), 1)
	}
	if got := w.Drain(); got != 40 {
		t.Fatalf("Drain = %v, want 40 (latest completion)", got)
	}
	if w.InFlight() != 0 {
		t.Fatal("window not empty after drain")
	}
}

func TestWindowDegenerateDepth(t *testing.T) {
	w := NewWindow(0, 0)
	if w.Depth() != 1 {
		t.Fatalf("depth 0 must normalize to 1, got %d", w.Depth())
	}
	w = NewWindow(-3, 0)
	if w.Depth() != 1 {
		t.Fatalf("negative depth must normalize to 1, got %d", w.Depth())
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(2, 100)
	w.Admit(0, 50)
	w.Complete(10, 50)
	w.Reset()
	if w.InFlight() != 0 {
		t.Fatal("Reset left in-flight ops")
	}
	if got := w.Admit(0, 100); got != 0 {
		t.Fatalf("admit after reset = %v, want 0", got)
	}
	w.Complete(1, 100)
}

// Property: with depth d and ops completing in submission order, the i-th op
// never issues before the (i-d)-th completion.
func TestWindowDepthInvariantProperty(t *testing.T) {
	f := func(depth8 uint8, n8 uint8) bool {
		depth := int(depth8%7) + 1
		n := int(n8%40) + depth
		w := NewWindow(depth, 0)
		completions := make([]Time, n)
		for i := 0; i < n; i++ {
			issue := w.Admit(0, 1)
			end := issue + 10
			completions[i] = end
			w.Complete(end, 1)
			if i >= depth && issue < completions[i-depth] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: at every admission, the bytes of still-incomplete earlier ops
// plus the new op never exceed the byte bound — unless the new op had the
// whole window to itself.
func TestWindowByteInvariantProperty(t *testing.T) {
	type op struct {
		end  Time
		size int64
	}
	f := func(sizes []uint8) bool {
		const bound = 100
		w := NewWindow(1000, bound)
		var live []op
		clock := Time(0)
		for i, s8 := range sizes {
			size := int64(s8%60) + 1
			issue := w.Admit(clock, size)
			if issue < clock {
				return false
			}
			// Retire everything completed by the issue instant.
			var kept []op
			var total int64
			for _, o := range live {
				if o.end > issue {
					kept = append(kept, o)
					total += o.size
				}
			}
			live = kept
			if total+size > bound && total > 0 {
				return false
			}
			end := issue + Time(5+i%7)
			w.Complete(end, size)
			live = append(live, op{end, size})
			clock = issue
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowInFlightAt(t *testing.T) {
	w := NewWindow(8, 0)
	// Three ops issued at 0 completing at 10, 20, 30.
	for _, end := range []Time{10, 20, 30} {
		w.Admit(0, 1)
		w.Complete(end, 1)
	}
	for _, tc := range []struct {
		at   Time
		want int
	}{{0, 3}, {9, 3}, {10, 2}, {19, 2}, {25, 1}, {30, 0}, {100, 0}} {
		if got := w.InFlightAt(tc.at); got != tc.want {
			t.Errorf("InFlightAt(%d) = %d, want %d", tc.at, got, tc.want)
		}
	}
	// Lazy retirement: a deep Admit keeps finished ops in the heap; they
	// still must not count at instants past their completion.
	w2 := NewWindow(2, 0)
	w2.Admit(0, 1)
	w2.Complete(5, 1)
	w2.Admit(0, 1)
	w2.Complete(6, 1)
	if got := w2.InFlightAt(7); got != 0 {
		t.Errorf("InFlightAt(7) = %d with lazily-retained ops, want 0", got)
	}
}

// TestWindowSteadyStateAllocs pins admit/complete at full queue depth at zero
// allocations: the heap is preallocated to the depth in NewWindow and never
// grows past it.
func TestWindowSteadyStateAllocs(t *testing.T) {
	const depth = 32
	w := NewWindow(depth, 0)
	var at Time
	for i := 0; i < depth; i++ {
		w.Complete(w.Admit(at, 4096)+Time(depth), 4096)
		at++
	}
	allocs := testing.AllocsPerRun(1000, func() {
		issue := w.Admit(at, 4096)
		w.Complete(issue+Time(depth), 4096)
		at = issue + 1
	})
	if allocs != 0 {
		t.Errorf("Admit/Complete at depth %d allocates %v objects per op, want 0", depth, allocs)
	}
	if got := w.InFlight(); got != depth {
		t.Errorf("in flight %d, want the full depth %d", got, depth)
	}
}
