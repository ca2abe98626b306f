package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"oocnvm/internal/sim"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMatrix(rng *sim.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatal("shape wrong")
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 || m.Data[5] != 7 {
		t.Fatal("At/Set wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestColRoundTrip(t *testing.T) {
	m := NewMatrix(3, 2)
	m.SetCol(1, []float64{1, 2, 3})
	got := m.Col(1)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("col = %v", got)
	}
}

func TestMulKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := NewMatrix(2, 1)
	b.Set(0, 0, 5)
	b.Set(1, 0, 6)
	c := a.Mul(b)
	if c.At(0, 0) != 17 || c.At(1, 0) != 39 {
		t.Fatalf("mul = %v", c.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := sim.NewRNG(1)
	a := randomMatrix(rng, 5, 5)
	c := a.Mul(Identity(5))
	for i := range a.Data {
		if !almostEqual(a.Data[i], c.Data[i], 1e-14) {
			t.Fatal("A*I != A")
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 2))
}

func TestTransMulMatchesExplicit(t *testing.T) {
	rng := sim.NewRNG(2)
	a := randomMatrix(rng, 6, 3)
	b := randomMatrix(rng, 6, 4)
	got := a.TransMul(b)
	// Explicit Aᵀ.
	at := NewMatrix(3, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := at.Mul(b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("TransMul diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestHCatAndSlice(t *testing.T) {
	a := NewMatrix(2, 1)
	a.Set(0, 0, 1)
	a.Set(1, 0, 2)
	b := NewMatrix(2, 2)
	b.Set(0, 0, 3)
	b.Set(1, 1, 4)
	joined := HCat(a, nil, b)
	if joined.Cols != 3 || joined.At(0, 0) != 1 || joined.At(0, 1) != 3 || joined.At(1, 2) != 4 {
		t.Fatalf("HCat = %+v", joined)
	}
	back := joined.Slice(0, 1)
	if back.Cols != 1 || back.At(1, 0) != 2 {
		t.Fatalf("Slice = %+v", back)
	}
}

func TestNorms(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 0, 4)
	if m.ColNorm(0) != 5 {
		t.Fatalf("ColNorm = %v", m.ColNorm(0))
	}
	if m.FrobeniusNorm() != 5 {
		t.Fatalf("Frobenius = %v", m.FrobeniusNorm())
	}
	m.Set(1, 1, -7)
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

// Property: (A·B)·C == A·(B·C) within round-off.
func TestMulAssociativityProperty(t *testing.T) {
	rng := sim.NewRNG(3)
	f := func(seed uint16) bool {
		r := sim.NewRNG(uint64(seed))
		a := randomMatrix(r, 4, 3)
		b := randomMatrix(r, 3, 5)
		c := randomMatrix(r, 5, 2)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-10) {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOrthonormalizeProducesOrthonormalBasis(t *testing.T) {
	rng := sim.NewRNG(4)
	m := randomMatrix(rng, 20, 6)
	q := Orthonormalize(m)
	if q.Cols != 6 {
		t.Fatalf("rank lost: %d cols", q.Cols)
	}
	g := q.TransMul(q)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(g.At(i, j), want, 1e-10) {
				t.Fatalf("QᵀQ[%d,%d] = %v", i, j, g.At(i, j))
			}
		}
	}
}

func TestOrthonormalizeDropsDependentColumns(t *testing.T) {
	m := NewMatrix(5, 3)
	for i := 0; i < 5; i++ {
		m.Set(i, 0, float64(i+1))
		m.Set(i, 1, 2*float64(i+1)) // dependent on col 0
		m.Set(i, 2, float64(i*i))
	}
	q := Orthonormalize(m)
	if q.Cols != 2 {
		t.Fatalf("kept %d cols, want 2", q.Cols)
	}
}

func TestOrthonormalizeSpanPreserved(t *testing.T) {
	rng := sim.NewRNG(5)
	m := randomMatrix(rng, 10, 3)
	q := Orthonormalize(m)
	// Each original column must be representable in the Q basis:
	// ‖(I - QQᵀ)·m_j‖ ≈ 0.
	proj := q.Mul(q.TransMul(m))
	for i := range m.Data {
		if !almostEqual(m.Data[i], proj.Data[i], 1e-9) {
			t.Fatal("span not preserved")
		}
	}
}
