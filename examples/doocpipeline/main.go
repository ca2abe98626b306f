// Doocpipeline: DOoC, the middleware layer of §2.1, in action. DOoC's
// data-aware scheduler runs a task DAG that computes a blocked matrix-vector
// product one panel per task, ordering ready tasks to maximize locality,
// while the data pool keeps panels resident under a memory budget with
// prefetching. The result is verified against a direct computation.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"sync"

	"oocnvm/internal/dooc"
	"oocnvm/internal/linalg"
	"oocnvm/internal/ooc"
)

func main() {
	// A sparse Hamiltonian partitioned into panels; each panel is serialized
	// into the "storage" the DOoC pool loads from.
	const n, panelRows = 480, 60
	h, err := ooc.Hamiltonian(ooc.DefaultHamiltonian(n))
	if err != nil {
		log.Fatal(err)
	}
	panels := make(map[string]linalg.RowPanel)
	backing := make(map[string][]byte)
	var names []string
	for lo := 0; lo < n; lo += panelRows {
		hi := lo + panelRows
		if hi > n {
			hi = n
		}
		p := h.Panel(lo, hi)
		name := fmt.Sprintf("H[%d:%d]", lo, hi)
		panels[name] = p
		backing[name] = serialize(p)
		names = append(names, name)
	}

	// DOoC data pool: room for only a quarter of the panels at once, loading
	// from backing storage on miss.
	var loads int
	var mu sync.Mutex
	pool, err := dooc.NewDataPool(totalBytes(backing)/4, func(name string) ([]byte, error) {
		mu.Lock()
		loads++
		mu.Unlock()
		b, ok := backing[name]
		if !ok {
			return nil, fmt.Errorf("no such panel %q", name)
		}
		return b, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The input block: 4 right-hand sides.
	x := linalg.NewMatrix(n, 4)
	for i := range x.Data {
		x.Data[i] = math.Sin(float64(i) * 0.37)
	}
	y := linalg.NewMatrix(n, 4)

	// One task per panel, all feeding a final reduction; the scheduler's
	// data-aware ordering prefers panels already resident.
	var tasks []dooc.Task
	for _, name := range names {
		name := name
		tasks = append(tasks, dooc.Task{
			ID:      "spmv:" + name,
			Inputs:  []string{name},
			Outputs: []string{"y:" + name},
			Fn: func() error {
				if _, err := pool.Get(name); err != nil {
					return err
				}
				panels[name].MulInto(x, y) // disjoint row ranges: no races
				return nil
			},
		})
	}
	var normOnce sync.Once
	var norm float64
	reduce := dooc.Task{ID: "norm", Fn: func() error {
		normOnce.Do(func() { norm = y.FrobeniusNorm() })
		return nil
	}}
	for _, name := range names {
		reduce.Inputs = append(reduce.Inputs, "y:"+name)
	}
	tasks = append(tasks, reduce)

	// Prefetch the first wave (DOoC's "basic prefetching"), then run.
	pool.Prefetch(names[0], names[1])()
	sched, err := dooc.NewScheduler(4, pool.Resident)
	if err != nil {
		log.Fatal(err)
	}
	order, err := sched.Run(tasks)
	if err != nil {
		log.Fatal(err)
	}

	want := h.Mul(x).FrobeniusNorm()
	hits, misses, evictions := pool.Stats()
	fmt.Printf("pipeline ran %d tasks (%d panel loads, %d pool hits, %d evictions)\n",
		len(order), loads, hits, evictions)
	fmt.Printf("‖H·X‖ via DOoC pipeline: %.10f\n", norm)
	fmt.Printf("‖H·X‖ direct:            %.10f  (|Δ| = %.2e)\n", want, math.Abs(norm-want))
	if math.Abs(norm-want) > 1e-9 {
		log.Fatal("mismatch between pipeline and direct computation")
	}

	if misses == 0 {
		log.Fatal("expected pool misses under a constrained budget")
	}
}

func serialize(p linalg.RowPanel) []byte {
	buf := make([]byte, 8*len(p.RowPtr)+12*len(p.Val))
	at := 0
	for _, r := range p.RowPtr {
		binary.LittleEndian.PutUint64(buf[at:], uint64(r))
		at += 8
	}
	for i := range p.Val {
		binary.LittleEndian.PutUint32(buf[at:], uint32(p.Col[i]))
		at += 4
		binary.LittleEndian.PutUint64(buf[at:], math.Float64bits(p.Val[i]))
		at += 8
	}
	return buf
}

func totalBytes(m map[string][]byte) int64 {
	var t int64
	for _, b := range m {
		t += int64(len(b))
	}
	return t
}
