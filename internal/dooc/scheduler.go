package dooc

import (
	"fmt"
	"sort"
	"sync"
)

// Task is one schedulable unit with data dependencies: it consumes named
// arrays and produces named arrays. Fn runs when every input's producer has
// completed.
type Task struct {
	ID      string
	Inputs  []string // array names consumed
	Outputs []string // array names produced
	Fn      func() error
}

// Scheduler is DOoC's hierarchical data-aware scheduler: it tracks the
// dependency DAG implied by array names and reorders ready tasks so that
// tasks whose inputs are already resident in the data pool run first,
// maximizing locality, while a worker pool provides the parallelism.
type Scheduler struct {
	workers  int
	resident func(name string) bool
}

// NewScheduler creates a scheduler with the given worker count. resident,
// when non-nil, reports whether an array is already local (usually
// DataPool.Resident); it drives the data-aware reordering.
func NewScheduler(workers int, resident func(string) bool) (*Scheduler, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("dooc: scheduler needs at least one worker, got %d", workers)
	}
	return &Scheduler{workers: workers, resident: resident}, nil
}

// Run executes the task set respecting dependencies and returns the
// completion order. It fails fast on cycles, duplicate producers, duplicate
// IDs, and propagates the first task error after the running wave drains.
func (s *Scheduler) Run(tasks []Task) ([]string, error) {
	producer := make(map[string]string) // array -> task ID
	byID := make(map[string]*Task, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if t.ID == "" {
			return nil, fmt.Errorf("dooc: task %d has empty ID", i)
		}
		if _, dup := byID[t.ID]; dup {
			return nil, fmt.Errorf("dooc: duplicate task ID %q", t.ID)
		}
		byID[t.ID] = t
		for _, out := range t.Outputs {
			if prev, dup := producer[out]; dup {
				return nil, fmt.Errorf("dooc: array %q produced by both %q and %q (arrays are immutable)", out, prev, t.ID)
			}
			producer[out] = t.ID
		}
	}

	// Build dependency edges: task -> tasks waiting on its outputs.
	waiting := make(map[string]int, len(tasks)) // task -> unmet producer count
	dependents := make(map[string][]string)     // producer task -> dependent tasks
	for _, t := range tasks {
		deps := make(map[string]bool)
		for _, in := range t.Inputs {
			if p, ok := producer[in]; ok && p != t.ID {
				deps[p] = true
			}
			// Inputs with no producer are external (already on storage).
		}
		waiting[t.ID] = len(deps)
		for p := range deps {
			dependents[p] = append(dependents[p], t.ID)
		}
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		ready     []string
		running   int
		done      int
		order     []string
		firstErr  error
		completed = make(map[string]bool)
	)
	for id, w := range waiting {
		if w == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)

	// pick selects the best ready task: most resident inputs first
	// (data-aware), then ID for determinism.
	pick := func() string {
		best, bestRes := -1, -1
		for i, id := range ready {
			res := 0
			if s.resident != nil {
				for _, in := range byID[id].Inputs {
					if s.resident(in) {
						res++
					}
				}
			}
			if res > bestRes || (res == bestRes && id < ready[best]) {
				best, bestRes = i, res
			}
		}
		id := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		return id
	}

	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && done < len(tasks) && firstErr == nil {
					if running == 0 && len(ready) == 0 && done < len(tasks) {
						firstErr = fmt.Errorf("dooc: dependency cycle among remaining %d tasks", len(tasks)-done)
						cond.Broadcast()
						mu.Unlock()
						return
					}
					cond.Wait()
				}
				if firstErr != nil || done >= len(tasks) {
					cond.Broadcast()
					mu.Unlock()
					return
				}
				id := pick()
				running++
				mu.Unlock()

				t := byID[id]
				var err error
				if t.Fn != nil {
					err = t.Fn()
				}

				mu.Lock()
				running--
				done++
				completed[id] = true
				order = append(order, id)
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("dooc: task %q: %w", id, err)
				}
				for _, dep := range dependents[id] {
					waiting[dep]--
					if waiting[dep] == 0 {
						ready = append(ready, dep)
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return order, firstErr
	}
	if len(order) != len(tasks) {
		return order, fmt.Errorf("dooc: scheduler finished %d of %d tasks", len(order), len(tasks))
	}
	return order, nil
}
