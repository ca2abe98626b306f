package dooc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// --- DataPool ----------------------------------------------------------------

func newPool(t *testing.T, budget int64, loads *int64) *DataPool {
	t.Helper()
	p, err := NewDataPool(budget, func(name string) ([]byte, error) {
		if loads != nil {
			atomic.AddInt64(loads, 1)
		}
		if name == "missing" {
			return nil, errors.New("no such array")
		}
		return make([]byte, 100), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewDataPool(0, func(string) ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewDataPool(10, nil); err == nil {
		t.Fatal("nil loader accepted")
	}
}

func TestPoolLoadsOnMissCachesOnHit(t *testing.T) {
	var loads int64
	p := newPool(t, 1000, &loads)
	if _, err := p.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get("a"); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want 1", loads)
	}
	hits, misses, _ := p.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestPoolEvictsLRU(t *testing.T) {
	var loads int64
	p := newPool(t, 250, &loads) // room for two 100-byte arrays
	p.Get("a")
	p.Get("b")
	p.Get("a") // a is now most recent
	p.Get("c") // evicts b
	if !p.Resident("a") || p.Resident("b") || !p.Resident("c") {
		t.Fatalf("LRU order wrong: a=%v b=%v c=%v", p.Resident("a"), p.Resident("b"), p.Resident("c"))
	}
	_, _, evictions := p.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}
}

func TestPoolRejectsOversizedArray(t *testing.T) {
	p := newPool(t, 50, nil) // every load is 100 bytes
	if _, err := p.Get("big"); err == nil {
		t.Fatal("array above budget accepted")
	}
	if p.Resident("big") {
		t.Fatal("array above budget made resident")
	}
}

func TestPoolLoaderErrorSurfaces(t *testing.T) {
	p := newPool(t, 1000, nil)
	if _, err := p.Get("missing"); err == nil {
		t.Fatal("loader error swallowed")
	}
}

func TestPoolConcurrentGetSharesLoad(t *testing.T) {
	var loads int64
	p := newPool(t, 10000, &loads)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Get("shared"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if loads != 1 {
		t.Fatalf("concurrent gets caused %d loads, want 1", loads)
	}
}

func TestPoolPrefetch(t *testing.T) {
	var loads int64
	p := newPool(t, 10000, &loads)
	wait := p.Prefetch("a", "b", "c")
	wait()
	if loads != 3 {
		t.Fatalf("prefetch loaded %d, want 3", loads)
	}
	if !p.Resident("a") || !p.Resident("b") || !p.Resident("c") {
		t.Fatal("prefetched arrays not resident")
	}
	if _, misses, evictions := p.Stats(); misses != 3 || evictions != 0 {
		t.Fatalf("misses=%d evictions=%d, want 3 and 0", misses, evictions)
	}
}

// --- Scheduler ---------------------------------------------------------------

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(0, nil); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestSchedulerRespectsDependencies(t *testing.T) {
	s, _ := NewScheduler(4, nil)
	var mu sync.Mutex
	done := map[string]bool{}
	mark := func(id string, deps ...string) func() error {
		return func() error {
			mu.Lock()
			defer mu.Unlock()
			for _, d := range deps {
				if !done[d] {
					return fmt.Errorf("%s ran before %s", id, d)
				}
			}
			done[id] = true
			return nil
		}
	}
	tasks := []Task{
		{ID: "load", Outputs: []string{"H"}, Fn: mark("load")},
		{ID: "mul", Inputs: []string{"H"}, Outputs: []string{"Y"}, Fn: mark("mul", "load")},
		{ID: "norm", Inputs: []string{"Y"}, Fn: mark("norm", "mul")},
		{ID: "independent", Fn: mark("independent")},
	}
	order, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("completed %d tasks", len(order))
	}
}

func TestSchedulerDetectsCycle(t *testing.T) {
	s, _ := NewScheduler(2, nil)
	tasks := []Task{
		{ID: "a", Inputs: []string{"y"}, Outputs: []string{"x"}},
		{ID: "b", Inputs: []string{"x"}, Outputs: []string{"y"}},
	}
	if _, err := s.Run(tasks); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestSchedulerRejectsDuplicateProducers(t *testing.T) {
	s, _ := NewScheduler(1, nil)
	tasks := []Task{
		{ID: "a", Outputs: []string{"x"}},
		{ID: "b", Outputs: []string{"x"}},
	}
	if _, err := s.Run(tasks); err == nil {
		t.Fatal("two producers for one immutable array accepted")
	}
}

func TestSchedulerRejectsDuplicateIDs(t *testing.T) {
	s, _ := NewScheduler(1, nil)
	if _, err := s.Run([]Task{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := s.Run([]Task{{ID: ""}}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestSchedulerPropagatesTaskError(t *testing.T) {
	s, _ := NewScheduler(2, nil)
	tasks := []Task{
		{ID: "bad", Fn: func() error { return errors.New("exploded") }},
		{ID: "good", Fn: func() error { return nil }},
	}
	if _, err := s.Run(tasks); err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestSchedulerDataAwareOrdering(t *testing.T) {
	// Single worker; arrays "hot" and "cold": the data-aware policy must run
	// the task with the resident input first even though it sorts later.
	resident := func(name string) bool { return name == "zzz-hot" }
	s, _ := NewScheduler(1, resident)
	var order []string
	var mu sync.Mutex
	rec := func(id string) func() error {
		return func() error {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		}
	}
	tasks := []Task{
		{ID: "a-cold", Inputs: []string{"aaa-cold"}, Fn: rec("a-cold")},
		{ID: "z-hot", Inputs: []string{"zzz-hot"}, Fn: rec("z-hot")},
	}
	if _, err := s.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if order[0] != "z-hot" {
		t.Fatalf("order = %v; resident input should run first", order)
	}
}

func TestSchedulerManyTasksManyWorkers(t *testing.T) {
	s, _ := NewScheduler(8, nil)
	var counter int64
	var tasks []Task
	// A layered DAG: layer k depends on layer k-1.
	for layer := 0; layer < 5; layer++ {
		for i := 0; i < 20; i++ {
			task := Task{
				ID:      fmt.Sprintf("t%d_%d", layer, i),
				Outputs: []string{fmt.Sprintf("out%d_%d", layer, i)},
				Fn: func() error {
					atomic.AddInt64(&counter, 1)
					return nil
				},
			}
			if layer > 0 {
				task.Inputs = []string{fmt.Sprintf("out%d_%d", layer-1, i)}
			}
			tasks = append(tasks, task)
		}
	}
	order, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 || counter != 100 {
		t.Fatalf("ran %d tasks, counter %d", len(order), counter)
	}
}
