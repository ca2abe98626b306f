package linalg

import (
	"testing"
	"testing/quick"

	"oocnvm/internal/sim"
)

func tridiag(n int) *CSR {
	var tri []Triplet
	for i := 0; i < n; i++ {
		tri = append(tri, Triplet{i, i, 2})
		if i+1 < n {
			tri = append(tri, Triplet{i, i + 1, -1})
			tri = append(tri, Triplet{i + 1, i, -1})
		}
	}
	m, err := NewCSR(n, tri)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSR(2, []Triplet{{2, 0, 1}}); err == nil {
		t.Fatal("row out of range accepted")
	}
	if _, err := NewCSR(2, []Triplet{{0, -1, 1}}); err == nil {
		t.Fatal("negative col accepted")
	}
}

func TestNewCSRSumsDuplicates(t *testing.T) {
	m, err := NewCSR(2, []Triplet{{0, 1, 2}, {0, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 {
		t.Fatalf("nnz = %d, want 1", m.NNZ())
	}
	if m.Val[0] != 5 {
		t.Fatalf("summed value = %v, want 5", m.Val[0])
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	m := tridiag(5)
	d := m.Dense()
	if d.At(0, 0) != 2 || d.At(0, 1) != -1 || d.At(0, 2) != 0 {
		t.Fatalf("dense expansion wrong: %v", d.Data)
	}
}

func TestCSRIsSymmetric(t *testing.T) {
	if !tridiag(6).IsSymmetric(1e-12) {
		t.Fatal("tridiagonal not detected as symmetric")
	}
	asym, _ := NewCSR(2, []Triplet{{0, 1, 1}})
	if asym.IsSymmetric(1e-12) {
		t.Fatal("asymmetric matrix detected as symmetric")
	}
}

func TestCSRMulMatchesDense(t *testing.T) {
	rng := sim.NewRNG(8)
	m := tridiag(20)
	x := randomMatrix(rng, 20, 3)
	sparse := m.Mul(x)
	dense := m.Dense().Mul(x)
	for i := range sparse.Data {
		if !almostEqual(sparse.Data[i], dense.Data[i], 1e-12) {
			t.Fatalf("sparse/dense mismatch at %d", i)
		}
	}
}

func TestCSRMulBlockRowsPartial(t *testing.T) {
	rng := sim.NewRNG(9)
	m := tridiag(10)
	x := randomMatrix(rng, 10, 2)
	whole := m.Mul(x)
	part := NewMatrix(10, 2)
	m.MulBlockRows(x, part, 0, 5)
	m.MulBlockRows(x, part, 5, 10)
	for i := range whole.Data {
		if !almostEqual(whole.Data[i], part.Data[i], 1e-14) {
			t.Fatal("panel-wise multiply diverges from whole multiply")
		}
	}
}

func TestCSRMulBlockRowsPanics(t *testing.T) {
	m := tridiag(4)
	x := NewMatrix(4, 1)
	y := NewMatrix(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("bad row range accepted")
		}
	}()
	m.MulBlockRows(x, y, 2, 9)
}

func TestPanelExtractionAndMul(t *testing.T) {
	rng := sim.NewRNG(10)
	m := tridiag(12)
	x := randomMatrix(rng, 12, 2)
	want := m.Mul(x)
	got := NewMatrix(12, 2)
	for lo := 0; lo < 12; lo += 4 {
		p := m.Panel(lo, lo+4)
		if p.Lo != lo || p.Hi != lo+4 {
			t.Fatal("panel bounds wrong")
		}
		if p.BytesOnDisk() <= 0 {
			t.Fatal("panel has no serialized footprint")
		}
		p.MulInto(x, got)
	}
	for i := range want.Data {
		if !almostEqual(want.Data[i], got.Data[i], 1e-14) {
			t.Fatal("panel multiply diverges")
		}
	}
}

func TestPanelBytesSumConsistent(t *testing.T) {
	m := tridiag(32)
	var sum int64
	for lo := 0; lo < 32; lo += 8 {
		sum += m.Panel(lo, lo+8).BytesOnDisk()
	}
	// Row pointers overlap by one entry per panel; totals must be close to
	// the whole-matrix footprint.
	whole := m.Panel(0, 32).BytesOnDisk()
	if sum < whole || sum > whole+4*8 {
		t.Fatalf("panel bytes %d vs whole %d", sum, whole)
	}
}

// Property: SpMM is linear: M(aX + bY) == a·MX + b·MY.
func TestCSRLinearityProperty(t *testing.T) {
	m := tridiag(16)
	f := func(seed uint16, a8, b8 int8) bool {
		rng := sim.NewRNG(uint64(seed))
		a, b := float64(a8)/16, float64(b8)/16
		x := randomMatrix(rng, 16, 2)
		y := randomMatrix(rng, 16, 2)
		combine := func(x, y *Matrix) *Matrix { // aX + bY
			out := x.Clone()
			for i := range out.Data {
				out.Data[i] = a*x.Data[i] + b*y.Data[i]
			}
			return out
		}
		left := m.Mul(combine(x, y))
		right := combine(m.Mul(x), m.Mul(y))
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: parallel Mul is deterministic (row-disjoint writes).
func TestCSRMulDeterministicProperty(t *testing.T) {
	m := tridiag(64)
	rng := sim.NewRNG(11)
	x := randomMatrix(rng, 64, 4)
	first := m.Mul(x)
	for i := 0; i < 10; i++ {
		again := m.Mul(x)
		for j := range first.Data {
			if first.Data[j] != again.Data[j] {
				t.Fatal("parallel SpMM nondeterministic")
			}
		}
	}
}
