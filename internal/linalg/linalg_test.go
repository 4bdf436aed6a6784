package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.Data[0] != 9 {
		t.Error("Set failed")
	}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 {
		t.Errorf("transpose wrong: %+v", tr)
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Error("Clone is not deep")
	}
}

func TestMulMatchesManual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	b := FromRows([][]float64{{7, 8, 9}, {10, 11, 12}})
	// A Dense whose rows are b's rows computes a·b (the MLP's dX = G·W).
	d := NewDense(2, 3)
	d.SetRows(b.Data, 3, 2)
	got := make([]float64, 3*d.OutPad)
	d.Forward(got, d.OutPad, a.Data, 2, 3)
	want := FromRows([][]float64{{27, 30, 33}, {61, 68, 75}, {95, 106, 117}})
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if g := got[i*d.OutPad+j]; g != want.At(i, j) {
				t.Fatalf("a·b mismatch at (%d,%d): %v vs %v", i, j, g, want.At(i, j))
			}
		}
	}
}

func TestMulVecAndDot(t *testing.T) {
	m := FromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	if got := mulVec(m, []float64{1, 2, 3}); got[0] != 7 || got[1] != 6 {
		t.Errorf("GemvT = %v", got)
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot wrong")
	}
}

// mulVec computes m*x through GemvT, the package's matrix-vector product.
func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	GemvT(out, m.Data, m.Rows, m.Cols, x, nil)
	return out
}

func TestVectorHelpers(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 {
		t.Errorf("Scale = %v", y)
	}
	if Mean(nil) != 0 || Mean([]float64{2, 4}) != 3 {
		t.Error("Mean wrong")
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	check("Dense.Forward", func() { NewDense(3, 2).Forward(make([]float64, 8), 8, make([]float64, 5), 3, 2) })
	check("Dense.SetRows", func() { NewDense(2, 3).SetRows(make([]float64, 9), 3, 3) })
	check("Dense.SetRows stride", func() { NewDense(2, 3).SetRows(make([]float64, 9), 2, 2) })
	check("GemvT", func() { GemvT(make([]float64, 2), make([]float64, 6), 2, 3, []float64{1}, nil) })
	check("Dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	check("FromRows", func() { FromRows([][]float64{{1}, {1, 2}}) })
}

// randomSPD builds A = BᵀB + I, which is symmetric positive definite.
func randomSPD(n int, rng *rand.Rand) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, s)
		}
		a.Set(i, i, a.At(i, i)+1)
	}
	return a
}

func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := randomSPD(n, rng)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := mulVec(a, xTrue)
		x, err := SolveSPD(a.Clone(), b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-6*(1+math.Abs(xTrue[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -1}})
	if err := Cholesky(a); err == nil {
		t.Error("Cholesky accepted an indefinite matrix")
	}
}

func TestWeightedRidgeRecoversLine(t *testing.T) {
	// y = 2x + 3 with exact data; ridge ~ 0 should recover slope/intercept.
	x := FromRows([][]float64{{0}, {1}, {2}, {3}})
	y := []float64{3, 5, 7, 9}
	w := []float64{1, 1, 1, 1}
	beta, err := WeightedRidge(x, y, w, 1e-10, true)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 2, 1e-5) || !almostEq(beta[1], 3, 1e-5) {
		t.Errorf("beta = %v, want [2 3]", beta)
	}
}

func TestWeightedRidgeRespectsWeights(t *testing.T) {
	// Two inconsistent points; all weight on the second.
	x := FromRows([][]float64{{1}, {1}})
	y := []float64{0, 10}
	beta, err := WeightedRidge(x, y, []float64{1e-12, 1}, 1e-12, false)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 10, 1e-4) {
		t.Errorf("beta = %v, want ~10", beta)
	}
}

func TestWeightedRidgeShrinks(t *testing.T) {
	x := FromRows([][]float64{{1}, {2}, {3}})
	y := []float64{1, 2, 3}
	w := []float64{1, 1, 1}
	small, _ := WeightedRidge(x, y, w, 1e-9, false)
	big, _ := WeightedRidge(x, y, w, 100, false)
	if math.Abs(big[0]) >= math.Abs(small[0]) {
		t.Errorf("ridge did not shrink: λ=100 gives %v vs %v", big[0], small[0])
	}
}

func TestRMSE(t *testing.T) {
	if RMSE(nil, nil) != 0 {
		t.Error("empty RMSE should be 0")
	}
	got := RMSE([]float64{1, 2}, []float64{1, 4})
	if math.Abs(got-math.Sqrt(2)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("RMSE accepted mismatched lengths")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}
