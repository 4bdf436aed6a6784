package linalg

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestDense32KernelBodiesBitwise is TestDenseKernelBodiesBitwise for the
// float32 layer: every Dense32.Forward body this CPU can run — zmm32
// (AVX-512), ymm32 (AVX2) and the portable fma32 loop — produces the same
// bits, which are those of a plain per-output fma32 chain, on shapes with
// In and Out tails and row counts not divisible by four, and each row's
// result is independent of the rows around it. It logs the body init
// installed, so a CI log names the runner's float32 body.
func TestDense32KernelBodiesBitwise(t *testing.T) {
	t.Logf("Dense32.Forward body installed by init: %s", dense32Kernel.name)
	have := map[string]bool{}
	for _, b := range dense32Bodies {
		have[b.name] = true
	}
	for _, name := range []string{"zmm32", "ymm32"} {
		if !have[name] {
			t.Logf("body %s: not supported by this CPU, skipped", name)
		}
	}

	rng := rand.New(rand.NewSource(41))
	shapes := [][2]int{{1, 1}, {1, 16}, {3, 7}, {8, 16}, {9, 17}, {45, 90}, {90, 89}, {89, 69},
		{69, 49}, {49, 29}, {29, 9}, {9, 1}, {45, 32}, {16, 32}, {8, 45}, {5, 48}, {13, 40}}
	for _, sh := range shapes {
		in, out := sh[0], sh[1]
		w, bias := randVec(rng, in*out), randVec(rng, out)
		d := NewDenseOf[float32](in, out)
		d.Pack(w, bias)
		if d.OutPad%16 != 0 || d.OutPad < out || d.OutPad >= out+16 {
			t.Fatalf("%dx%d: OutPad %d", in, out, d.OutPad)
		}
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
			xStride := in + rng.Intn(3)
			dstStride := d.OutPad + 16*rng.Intn(2)
			x := randVec32(rng, (rows-1)*xStride+in)
			want := make([]float32, (rows-1)*dstStride+d.OutPad)
			dense32Go(d, want, dstStride, x, xStride, rows)

			for r := 0; r < rows; r++ {
				for o := 0; o < out; o++ {
					acc := float32(bias[o])
					for i := 0; i < in; i++ {
						acc = fma32(x[r*xStride+i], float32(w[o*in+i]), acc)
					}
					if got := want[r*dstStride+o]; math.Float32bits(got) != math.Float32bits(acc) {
						t.Fatalf("%dx%d rows=%d: go-fma32 [%d][%d] = %v, chain %v", in, out, rows, r, o, got, acc)
					}
				}
				for o := out; o < d.OutPad; o++ {
					if v := want[r*dstStride+o]; v != 0 {
						t.Fatalf("%dx%d rows=%d: padding output [%d][%d] = %v, want 0", in, out, rows, r, o, v)
					}
				}
			}

			for _, b := range dense32Bodies {
				const gap = -7.0
				got := make([]float32, len(want))
				for i := range got {
					got[i] = gap
				}
				b.run(d, got, dstStride, x, xStride, rows)
				for r := 0; r < rows; r++ {
					for o := 0; o < d.OutPad; o++ {
						if g, e := got[r*dstStride+o], want[r*dstStride+o]; math.Float32bits(g) != math.Float32bits(e) {
							t.Fatalf("%dx%d rows=%d: %s [%d][%d] = %v, go-fma32 %v", in, out, rows, b.name, r, o, g, e)
						}
					}
					for o := d.OutPad; o < dstStride && r < rows-1; o++ {
						if g := got[r*dstStride+o]; g != gap {
							t.Fatalf("%dx%d rows=%d: %s wrote %v into row %d's stride gap", in, out, rows, b.name, g, r)
						}
					}
				}
			}

			one := make([]float32, d.OutPad)
			for r := 0; r < rows; r++ {
				d.Forward(one, d.OutPad, x[r*xStride:r*xStride+in], in, 1)
				for o := range one {
					if math.Float32bits(one[o]) != math.Float32bits(want[r*dstStride+o]) {
						t.Fatalf("%dx%d rows=%d: row %d alone [%d] = %v, in block %v", in, out, rows, r, o, one[o], want[r*dstStride+o])
					}
				}
			}
		}
	}
}

// TestFMA32CorrectlyRounded pins fma32 to the exact x*y+z rounded once to
// float32 (big.Float as the oracle), on random operands across magnitudes
// and on a case where rounding through float64 first goes wrong: x*y+z =
// 1 + 2⁻²⁴ + 2⁻⁶⁰ rounds to 1 + 2⁻²⁴ in float64, exactly halfway between
// two float32s, and the tie then rounds to even (1), while the exact value
// rounds up to 1 + 2⁻²³.
func TestFMA32CorrectlyRounded(t *testing.T) {
	exact := func(x, y, z float32) float32 {
		p := new(big.Float).SetPrec(2000).SetFloat64(float64(x))
		p.Mul(p, new(big.Float).SetPrec(2000).SetFloat64(float64(y)))
		p.Add(p, new(big.Float).SetPrec(2000).SetFloat64(float64(z)))
		f, _ := p.Float32()
		return f
	}
	x := float32(math.Ldexp(1+math.Ldexp(1, -12), -24))
	y := float32(1 - math.Ldexp(1, -12) + math.Ldexp(1, -24))
	z := float32(1)
	if twice := float32(math.FMA(float64(x), float64(y), float64(z))); twice != 1 {
		t.Fatalf("double-rounding case: float32(math.FMA) = %v, want the mis-rounded 1", twice)
	}
	if got, want := fma32(x, y, z), exact(x, y, z); got != want || want != 1+float32(math.Ldexp(1, -23)) {
		t.Fatalf("double-rounding case: fma32 = %v, exact %v", got, want)
	}

	rng := rand.New(rand.NewSource(43))
	draw := func() float32 {
		v := float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20))
		if rng.Intn(8) == 0 {
			// Few mantissa bits make exact ties and cancellations common.
			v = float32(rng.Intn(64)-32) * float32(math.Ldexp(1, rng.Intn(12)-6))
		}
		return v
	}
	for i := 0; i < 200000; i++ {
		x, y, z := draw(), draw(), draw()
		if rng.Intn(4) == 0 {
			z = -x * y // near-total cancellation
		}
		if got, want := fma32(x, y, z), exact(x, y, z); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%v, %v, %v) = %v, exact %v", x, y, z, got, want)
		}
	}
}

// TestKernels32MatchScalar holds each float32 vector kernel to a float32
// scalar reference: bitwise where the kernel computes the same correctly
// rounded operations (scale, ReLU, the scaled max and its mask, and
// ScaleMaxMask against ScaleMax then MaskGreater), within float32 rounding
// where it fuses a multiply-add or approximates exp. Every length exercises
// the 8-lane prefix and the tail.
func TestKernels32MatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	close32 := func(a, b float32, tol float64) bool { return relClose(float64(a), float64(b), tol) }
	for _, n := range []int{1, 3, 7, 8, 9, 15, 16, 17, 32, 45, 64} {
		u, v := randVec32(rng, n), randVec32(rng, n)
		for i := range v {
			v[i] *= 8
		}
		glu := make([]float32, n)
		GLUInto(glu, u, v)
		for i := range glu {
			if want := float32(float64(u[i]) / (1 + math.Exp(-float64(v[i])))); !close32(glu[i], want, 1e-6) {
				t.Fatalf("n=%d GLUInto[%d] = %v, want %v", n, i, glu[i], want)
			}
		}

		x, scale, shift := randVec32(rng, n), randVec32(rng, n), randVec32(rng, n)
		got := append([]float32(nil), x...)
		ScaleShiftReLU(got, scale, shift)
		for i := range got {
			want := float32(math.Max(0, float64(x[i])*float64(scale[i])+float64(shift[i])))
			if !close32(got[i], want, 1e-6) {
				t.Fatalf("n=%d ScaleShiftReLU[%d] = %v, want %v", n, i, got[i], want)
			}
		}

		x64, s64, h64 := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		std := make([]float32, n)
		ScaleShiftInto(std, x64, s64, h64)
		for i := range std {
			if want := float32(math.FMA(x64[i], s64[i], h64[i])); !close32(std[i], want, 1e-7) {
				t.Fatalf("n=%d ScaleShiftInto[%d] = %v, want %v", n, i, std[i], want)
			}
		}

		alpha := float32(rng.NormFloat64())
		y := randVec32(rng, n)
		ax := append([]float32(nil), y...)
		Axpy(alpha, x, ax)
		for i := range ax {
			if want := fma32(alpha, x[i], y[i]); !close32(ax[i], want, 1e-6) {
				t.Fatalf("n=%d Axpy[%d] = %v, want %v", n, i, ax[i], want)
			}
		}

		sc := append([]float32(nil), x...)
		Scale(alpha, sc)
		rl := append([]float32(nil), x...)
		ReLU(rl)
		sm := append([]float32(nil), x...)
		vmax := ScaleMax(sm, scale)
		wantMax := float32(math.Inf(-1))
		for i := range x {
			if sc[i] != alpha*x[i] {
				t.Fatalf("n=%d Scale[%d] = %v, want %v", n, i, sc[i], alpha*x[i])
			}
			if want := max(x[i], 0); rl[i] != want {
				t.Fatalf("n=%d ReLU[%d] = %v, want %v", n, i, rl[i], want)
			}
			if sm[i] != x[i]*scale[i] {
				t.Fatalf("n=%d ScaleMax[%d] = %v, want %v", n, i, sm[i], x[i]*scale[i])
			}
			wantMax = max(wantMax, sm[i])
		}
		if vmax != wantMax {
			t.Fatalf("n=%d ScaleMax = %v, want %v", n, vmax, wantMax)
		}
		fused := append([]float32(nil), x...)
		if fmax, fmask := ScaleMaxMask(fused, scale); fmax != vmax || fmask != MaskGreater(sm, vmax-1) {
			t.Fatalf("n=%d ScaleMaxMask = %v, %b; ScaleMax then MaskGreater %v, %b", n, fmax, fmask, vmax, MaskGreater(sm, vmax-1))
		}
		for i := range fused {
			if math.Float32bits(fused[i]) != math.Float32bits(sm[i]) {
				t.Fatalf("n=%d ScaleMaxMask[%d] = %v, ScaleMax %v", n, i, fused[i], sm[i])
			}
		}
		lim := sm[rng.Intn(n)] - 0.5
		var wantMask uint64
		for i, s := range sm {
			if s > lim {
				wantMask |= 1 << uint(i)
			}
		}
		if m := MaskGreater(sm, lim); m != wantMask {
			t.Fatalf("n=%d MaskGreater = %b, want %b", n, m, wantMask)
		}
	}
}

func randVec32(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// TestGLURowsMatchesGLUInto: GLURows gives GLUInto's bits row by row, in
// both precisions, on strided rows of widths with and without an 8-lane
// tail, and writes nothing between output rows.
func TestGLURowsMatchesGLUInto(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, h := range []int{1, 5, 8, 16, 24} {
		for _, rows := range []int{1, 3, 4} {
			zs, ds := 2*h+rng.Intn(3), h+rng.Intn(3)
			z := randVec(rng, (rows-1)*zs+2*h)
			for i := range z {
				z[i] *= 6
			}
			checkGLURows(t, z, zs, ds, h, rows)
			z32 := make([]float32, len(z))
			for i, v := range z {
				z32[i] = float32(v)
			}
			checkGLURows(t, z32, zs, ds, h, rows)
		}
	}
}

func checkGLURows[T Float](t *testing.T, z []T, zs, ds, h, rows int) {
	t.Helper()
	const gap = -3
	got := make([]T, (rows-1)*ds+h)
	for i := range got {
		got[i] = gap
	}
	GLURows(got, ds, z, zs, h, rows)
	want := make([]T, h)
	for r := 0; r < rows; r++ {
		GLUInto(want, z[r*zs:r*zs+h], z[r*zs+h:r*zs+2*h])
		for i, w := range want {
			if g := got[r*ds+i]; g != w {
				t.Fatalf("%T h=%d rows=%d: GLURows[%d][%d] = %v, GLUInto %v", w, h, rows, r, i, g, w)
			}
		}
		for i := h; i < ds && r < rows-1; i++ {
			if g := got[r*ds+i]; g != gap {
				t.Fatalf("%T h=%d: GLURows wrote %v between rows", g, h, g)
			}
		}
	}
}
