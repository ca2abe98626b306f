package core

import (
	"math"
	"testing"

	"oocnvm/internal/linalg"
	"oocnvm/internal/nvm"
	"oocnvm/internal/ooc"
)

func newNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode(DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNodeLifecycle(t *testing.T) {
	n := newNode(t)
	if n.Capacity() <= 0 {
		t.Fatal("no capacity")
	}
	if _, err := n.Alloc("data", 16<<20); err != nil {
		t.Fatal(err)
	}
	if err := n.Write("data", 0, 16<<20); err != nil {
		t.Fatal(err)
	}
	if err := n.Seal("data"); err != nil {
		t.Fatal(err)
	}
	if err := n.Read("data", 0, 16<<20); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.BytesRead != 16<<20 || st.BytesWritten != 16<<20 {
		t.Fatalf("accounting: %+v", st)
	}
	if st.Elapsed <= 0 || st.ReadMBps <= 0 {
		t.Fatalf("no simulated time: %+v", st)
	}
}

func TestNodeEraseBeforeWrite(t *testing.T) {
	n := newNode(t)
	n.Alloc("x", 1<<20)
	if err := n.Write("x", 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := n.Write("x", 0, 1<<20); err == nil {
		t.Fatal("overwrite without erase accepted")
	}
	if err := n.Erase("x"); err != nil {
		t.Fatal(err)
	}
	if err := n.Write("x", 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Device.Erases == 0 {
		t.Fatal("host-managed erase never reached the device")
	}
}

func TestNodeErrorsSurface(t *testing.T) {
	n := newNode(t)
	if err := n.Read("ghost", 0, 1); err == nil {
		t.Fatal("read of unknown extent accepted")
	}
	if err := n.Write("ghost", 0, 1); err == nil {
		t.Fatal("write of unknown extent accepted")
	}
	if err := n.Erase("ghost"); err == nil {
		t.Fatal("erase of unknown extent accepted")
	}
	if _, err := n.NewStorage("ghost"); err == nil {
		t.Fatal("storage for unknown extent accepted")
	}
}

func TestNativeConfigFaster(t *testing.T) {
	run := func(cfg NodeConfig) float64 {
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Alloc("d", 64<<20)
		n.Write("d", 0, 64<<20)
		for i := 0; i < 2; i++ {
			for off := int64(0); off < 64<<20; off += 8 << 20 {
				n.Read("d", off, 8<<20)
			}
		}
		return n.Stats().ReadMBps
	}
	base := run(DefaultNodeConfig())
	native := run(NativeNodeConfig(nvm.SLC))
	// The measured rate includes the one-time staging writes (tPROG-bound on
	// both nodes), which compresses the ratio below the pure-read ladder.
	if native < 1.5*base {
		t.Fatalf("NATIVE-16 node %.0f MB/s vs baseline %.0f; want a large multiple", native, base)
	}
}

// TestEndToEndEigensolver runs the paper's workload through the public API:
// LOBPCG over an out-of-core Hamiltonian stored on the node, verified
// against the dense reference.
func TestEndToEndEigensolver(t *testing.T) {
	const dim, k = 240, 4
	h, err := ooc.Hamiltonian(ooc.DefaultHamiltonian(dim))
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NativeNodeConfig(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	sizing, err := ooc.NewMatrixStore(h, dim/8, &ooc.Recorder{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Alloc("H", sizing.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := node.Write("H", 0, sizing.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := node.Seal("H"); err != nil {
		t.Fatal(err)
	}
	storage, err := node.NewStorage("H")
	if err != nil {
		t.Fatal(err)
	}
	store, err := ooc.NewMatrixStore(h, dim/8, storage)
	if err != nil {
		t.Fatal(err)
	}
	res, err := linalg.LOBPCG(store, linalg.LOBPCGOptions{K: k, MaxIter: 300, Tol: 1e-7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence in %d iterations", res.Iterations)
	}
	ref, _, err := linalg.SymEig(h.Dense())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		if math.Abs(res.Values[j]-ref[j]) > 1e-6 {
			t.Errorf("lambda_%d = %v, dense ref %v", j, res.Values[j], ref[j])
		}
	}
	st := node.Stats()
	if st.BytesRead == 0 || st.Elapsed <= 0 {
		t.Fatal("solver I/O never reached the simulated device")
	}
	// The workload is read-intensive: panel reads dominate the one-time
	// staging write.
	if st.BytesRead < 4*st.BytesWritten {
		t.Fatalf("reads %d vs writes %d; expected a read-intensive profile",
			st.BytesRead, st.BytesWritten)
	}
}

func TestStoragePanicsOutsideExtent(t *testing.T) {
	n := newNode(t)
	n.Alloc("small", 1<<20)
	s, err := n.NewStorage("small")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-extent read did not panic")
		}
	}()
	s.ReadAt(0, 2<<20)
}

func TestStorageWrite(t *testing.T) {
	n := newNode(t)
	n.Alloc("buf", 1<<20)
	s, err := n.NewStorage("buf")
	if err != nil {
		t.Fatal(err)
	}
	s.WriteAt(0, 1<<20)
	if n.Stats().BytesWritten != 1<<20 {
		t.Fatal("storage write did not reach the node")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-extent write did not panic")
		}
	}()
	s.WriteAt(0, 1<<20) // erase-before-write violation surfaces loudly
}
