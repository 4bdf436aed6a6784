package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The vector micro-kernels (AVX2+FMA on amd64) must agree with the portable
// scalar paths: bitwise where the kernel preserves the scalar operation
// order, and within a small relative tolerance where FMA contraction or the
// polynomial exp approximation changes rounding. On platforms without the
// kernels these tests still pass — they then compare the scalar paths
// against the naive references.

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 12, 45, 100} {
		a := make([]float64, n)
		b := make([]float64, n)
		want := 0.0
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
			want += a[i] * b[i]
		}
		if got := Dot(a, b); !relClose(got, want, 1e-12) {
			t.Errorf("n=%d Dot=%v want %v", n, got, want)
		}
	}
}

func TestAxpyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 4, 7, 8, 11, 45, 64} {
		x := make([]float64, n)
		y := make([]float64, n)
		want := make([]float64, n)
		alpha := rng.NormFloat64()
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
			want[i] = y[i] + alpha*x[i]
		}
		Axpy(alpha, x, y)
		for i := range y {
			if !relClose(y[i], want[i], 1e-12) {
				t.Fatalf("n=%d y[%d]=%v want %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestGemvTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{45, 8}, {32, 45}, {45, 45}, {7, 5}, {4, 4}, {5, 3}, {12, 24}, {45, 16}, {1, 6}, {3, 2}} {
		in, out := dims[0], dims[1]
		w := make([]float64, in*out)
		x := make([]float64, in)
		b := make([]float64, out)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for _, bias := range [][]float64{nil, b} {
			got := make([]float64, out)
			GemvT(got, w, out, in, x, bias)
			for o := 0; o < out; o++ {
				want := 0.0
				for j := 0; j < in; j++ {
					want += w[o*in+j] * x[j]
				}
				if bias != nil {
					want += bias[o]
				}
				if !relClose(got[o], want, 1e-12) {
					t.Fatalf("%dx%d bias=%v out[%d]=%v want %v", in, out, bias != nil, o, got[o], want)
				}
			}
		}
	}
}

func TestGLUIntoMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 4, 8, 15, 16, 17, 32, 45} {
		u := make([]float64, n)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 6
			u[i] = rng.NormFloat64()
		}
		// Saturation edges: beyond the clamp the sigmoid must flush to
		// exactly 0 or 1 instead of overflowing.
		if n >= 8 {
			v[0], v[1] = 800, -800
		}
		got := make([]float64, n)
		GLUInto(got, u, v)
		for i := range v {
			want := u[i] / (1 + math.Exp(-v[i]))
			if !relClose(got[i], want, 1e-10) {
				t.Fatalf("n=%d glu(%g)·%g = %g want %g", n, v[i], u[i], got[i], want)
			}
		}
	}
}

func TestScaleShiftReLUMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 3, 4, 5, 12, 45} {
		x := make([]float64, n)
		scale := make([]float64, n)
		shift := make([]float64, n)
		want := make([]float64, n)
		for i := range x {
			x[i], scale[i], shift[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			w := x[i]*scale[i] + shift[i]
			if w < 0 {
				w = 0
			}
			want[i] = w
		}
		ScaleShiftReLU(x, scale, shift)
		for i := range x {
			if !relClose(x[i], want[i], 1e-12) {
				t.Fatalf("n=%d x[%d]=%v want %v", n, i, x[i], want[i])
			}
		}
	}
}

func TestScaleShiftIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 4, 7, 45} {
		x := make([]float64, n)
		scale := make([]float64, n)
		shift := make([]float64, n)
		dst := make([]float64, n)
		for i := range x {
			x[i], scale[i], shift[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		ScaleShiftInto(dst, x, scale, shift)
		for i := range x {
			want := x[i]*scale[i] + shift[i]
			if !relClose(dst[i], want, 1e-12) {
				t.Fatalf("n=%d dst[%d]=%v want %v", n, i, dst[i], want)
			}
		}
		// Aliased form (in-place standardization).
		cp := append([]float64(nil), x...)
		ScaleShiftInto(cp, cp, scale, shift)
		for i := range cp {
			want := x[i]*scale[i] + shift[i]
			if !relClose(cp[i], want, 1e-12) {
				t.Fatalf("aliased n=%d dst[%d]=%v want %v", n, i, cp[i], want)
			}
		}
	}
}

func TestReLUAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 4, 6, 8, 45} {
		x := make([]float64, n)
		wantR := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			wantR[i] = math.Max(0, x[i])
		}
		cp := append([]float64(nil), x...)
		ReLU(cp)
		for i := range cp {
			if cp[i] != wantR[i] {
				t.Fatalf("ReLU n=%d x[%d]=%v want %v", n, i, cp[i], wantR[i])
			}
		}
		alpha := rng.NormFloat64()
		cp = append(cp[:0], x...)
		Scale(alpha, cp)
		for i := range cp {
			if cp[i] != x[i]*alpha {
				t.Fatalf("Scale n=%d x[%d]=%v want %v", n, i, cp[i], x[i]*alpha)
			}
		}
	}
}

func TestScaleMaxAndMaskGreater(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 3, 4, 5, 8, 13, 45, 64} {
		v := make([]float64, n)
		sc := make([]float64, n)
		ref := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
			sc[i] = rng.Float64() + 0.5
			ref[i] = v[i] * sc[i]
		}
		refMax := math.Inf(-1)
		for _, x := range ref {
			if x > refMax {
				refMax = x
			}
		}
		got := ScaleMax(v, sc)
		if got != refMax {
			t.Fatalf("n=%d ScaleMax=%v want %v", n, got, refMax)
		}
		for i := range v {
			if v[i] != ref[i] {
				t.Fatalf("n=%d v[%d]=%v want %v", n, i, v[i], ref[i])
			}
		}
		lim := refMax - 1
		var want uint64
		for i, x := range v {
			if x > lim {
				want |= 1 << uint(i)
			}
		}
		if m := MaskGreater(v, lim); m != want {
			t.Fatalf("n=%d MaskGreater=%b want %b", n, m, want)
		}
		// NaN compares false, like the scalar > operator.
		if n >= 4 {
			v[2] = math.NaN()
			if m := MaskGreater(v, math.Inf(-1)); m&(1<<2) != 0 {
				t.Fatalf("n=%d NaN lane set in mask %b", n, m)
			}
		}
	}
}
