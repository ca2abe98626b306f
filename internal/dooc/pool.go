// Package dooc implements DOoC, the distributed out-of-core layer the
// paper's application runs on (§2.1): a data storage layer of immutable
// named arrays with prefetching and automatic memory management, plus a
// hierarchical data-aware scheduler that is "cognizant of data-dependencies
// and performs task reordering to maximize parallelism and performance".
package dooc

import (
	"container/list"
	"fmt"
	"sync"
)

// Loader fetches a named array's bytes from backing storage. It is how the
// pool reaches the node's NVM (or, in ION configurations, the network).
type Loader func(name string) ([]byte, error)

// DataPool is DOoC's distributed data storage layer for one node: named,
// immutable-once-written arrays kept resident under a memory budget with
// LRU replacement and asynchronous prefetch. "Large disk-located arrays are
// immutable once written, removing any need for complicated coherency
// mechanisms" (§2.1), so a resident array is never reloaded or replaced.
type DataPool struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	loader   Loader
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]chan struct{}

	hits, misses, evictions int64
}

type poolEntry struct {
	name string
	data []byte
}

// NewDataPool creates a pool with the given byte budget and loader.
func NewDataPool(budget int64, loader Loader) (*DataPool, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("dooc: pool budget must be positive, got %d", budget)
	}
	if loader == nil {
		return nil, fmt.Errorf("dooc: pool requires a loader")
	}
	return &DataPool{
		budget:   budget,
		loader:   loader,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]chan struct{}),
	}, nil
}

// Stats reports hit/miss/eviction counters.
func (p *DataPool) Stats() (hits, misses, evictions int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.evictions
}

func (p *DataPool) insertLocked(name string, data []byte) error {
	need := int64(len(data))
	if need > p.budget {
		return fmt.Errorf("dooc: array %q (%d bytes) exceeds pool budget %d", name, need, p.budget)
	}
	for p.used+need > p.budget {
		p.evictOldestLocked()
	}
	el := p.lru.PushFront(&poolEntry{name: name, data: data})
	p.entries[name] = el
	p.used += need
	return nil
}

// evictOldestLocked drops the least recently used array. The budget check
// in insertLocked guarantees the pool is non-empty whenever it is called.
func (p *DataPool) evictOldestLocked() {
	el := p.lru.Back()
	e := el.Value.(*poolEntry)
	p.lru.Remove(el)
	delete(p.entries, e.name)
	p.used -= int64(len(e.data))
	p.evictions++
}

// Get returns the named array, loading it through the Loader on a miss.
// Concurrent Gets of the same missing name share one load.
func (p *DataPool) Get(name string) ([]byte, error) {
	for {
		p.mu.Lock()
		if el, ok := p.entries[name]; ok {
			p.lru.MoveToFront(el)
			p.hits++
			data := el.Value.(*poolEntry).data
			p.mu.Unlock()
			return data, nil
		}
		if ch, loading := p.inflight[name]; loading {
			p.mu.Unlock()
			<-ch
			continue // re-check: the load may have failed or been evicted
		}
		ch := make(chan struct{})
		p.inflight[name] = ch
		p.misses++
		p.mu.Unlock()

		data, err := p.loader(name)
		p.mu.Lock()
		delete(p.inflight, name)
		close(ch)
		if err != nil {
			p.mu.Unlock()
			return nil, fmt.Errorf("dooc: loading %q: %w", name, err)
		}
		if _, exists := p.entries[name]; !exists {
			if ierr := p.insertLocked(name, data); ierr != nil {
				p.mu.Unlock()
				return nil, ierr
			}
		}
		p.mu.Unlock()
		return data, nil
	}
}

// Resident reports whether a name is in the pool.
func (p *DataPool) Resident(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[name]
	return ok
}

// Prefetch starts asynchronous loads for the given names (DOoC's "basic
// prefetching"): the returned function waits for all of them.
func (p *DataPool) Prefetch(names ...string) (wait func()) {
	var wg sync.WaitGroup
	for _, n := range names {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			_, _ = p.Get(n) // errors resurface on the demand Get
		}(n)
	}
	return wg.Wait
}
