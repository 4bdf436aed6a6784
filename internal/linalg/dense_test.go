package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestDenseKernelBodiesBitwise pins Dense.Forward's contract: every kernel
// body this CPU can run — zmm (AVX-512), ymm (AVX2) and the portable
// math.FMA loop — produces the same bits, on shapes with In and Out tails
// and row counts not divisible by four, for rows anywhere in the block,
// and leaves the stride gap between dst rows alone. It also logs which
// body init installed, so a CI log shows the runner's ISA.
func TestDenseKernelBodiesBitwise(t *testing.T) {
	t.Logf("Dense.Forward body installed by init: %s", denseKernel.name)
	have := map[string]bool{}
	for _, b := range denseBodies {
		have[b.name] = true
	}
	for _, name := range []string{"zmm", "ymm"} {
		if !have[name] {
			t.Logf("body %s: not supported by this CPU, skipped", name)
		}
	}

	rng := rand.New(rand.NewSource(29))
	shapes := [][2]int{{1, 1}, {1, 8}, {3, 7}, {8, 16}, {9, 17}, {45, 90}, {90, 89}, {89, 69},
		{69, 49}, {49, 29}, {29, 9}, {9, 1}, {8, 45}, {16, 32}, {45, 32}, {5, 24}, {13, 40}}
	for _, sh := range shapes {
		in, out := sh[0], sh[1]
		w := randVec(rng, in*out)
		bias := randVec(rng, out)
		d := NewDense(in, out)
		d.Pack(w, bias)
		for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13} {
			xStride := in + rng.Intn(3)
			dstStride := d.OutPad + 8*rng.Intn(2)
			x := randVec(rng, (rows-1)*xStride+in)
			want := make([]float64, (rows-1)*dstStride+d.OutPad)
			denseGo(d, want, dstStride, x, xStride, rows)

			// The portable body against a plain per-output FMA chain.
			for r := 0; r < rows; r++ {
				for o := 0; o < out; o++ {
					acc := bias[o]
					for i := 0; i < in; i++ {
						acc = math.FMA(x[r*xStride+i], w[o*in+i], acc)
					}
					if got := want[r*dstStride+o]; got != acc {
						t.Fatalf("%dx%d rows=%d: go-fma [%d][%d] = %v, chain %v", in, out, rows, r, o, got, acc)
					}
				}
				for o := out; o < d.OutPad; o++ {
					if v := want[r*dstStride+o]; v != 0 {
						t.Fatalf("%dx%d rows=%d: padding output [%d][%d] = %v, want 0", in, out, rows, r, o, v)
					}
				}
			}

			for _, b := range denseBodies {
				const gap = -7.0
				got := make([]float64, len(want))
				for i := range got {
					got[i] = gap
				}
				b.run(d, got, dstStride, x, xStride, rows)
				for r := 0; r < rows; r++ {
					for o := 0; o < d.OutPad; o++ {
						if g, e := got[r*dstStride+o], want[r*dstStride+o]; math.Float64bits(g) != math.Float64bits(e) {
							t.Fatalf("%dx%d rows=%d: %s [%d][%d] = %v, go-fma %v", in, out, rows, b.name, r, o, g, e)
						}
					}
					for o := d.OutPad; o < dstStride && r < rows-1; o++ {
						if g := got[r*dstStride+o]; g != gap {
							t.Fatalf("%dx%d rows=%d: %s wrote %v into row %d's stride gap", in, out, rows, b.name, g, r)
						}
					}
				}
			}

			// Row independence: each row alone gives the same bits as in
			// the block, whatever its position.
			one := make([]float64, d.OutPad)
			for r := 0; r < rows; r++ {
				d.Forward(one, d.OutPad, x[r*xStride:r*xStride+in], in, 1)
				for o := range one {
					if math.Float64bits(one[o]) != math.Float64bits(want[r*dstStride+o]) {
						t.Fatalf("%dx%d rows=%d: row %d alone [%d] = %v, in block %v", in, out, rows, r, o, one[o], want[r*dstStride+o])
					}
				}
			}
		}
	}
}

// TestDenseSetRowsMatchesPack pins SetRows as Pack's untransposed twin: a
// layer filled by SetRows from Wᵀ holds the same bits as one packed from W,
// also from rows stored wider than Out and after shrinking to fewer rows and
// growing back, and its padding stays zero.
func TestDenseSetRowsMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const in, out = 13, 21
	w := randVec(rng, in*out)
	wt := make([]float64, in*out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			wt[i*out+o] = w[o*in+i]
		}
	}
	packed := NewDense(in, out)
	packed.Pack(w, make([]float64, out))
	// wide holds the same rows at stride out+3, behind three leading values.
	const stride = out + 3
	wide := randVec(rng, 3+in*stride)
	for i := 0; i < in; i++ {
		copy(wide[3+i*stride:], wt[i*out:(i+1)*out])
	}
	d := NewDense(in, out)
	for _, rows := range []int{in, 1, 5, in} {
		for _, src := range []struct {
			w      []float64
			stride int
		}{{wt, out}, {wide[3:], stride}} {
			d.SetRows(randVec(rng, rows*out), out, rows)
			d.SetRows(src.w, src.stride, rows)
			if d.In != rows || len(d.WT) != rows*d.OutPad {
				t.Fatalf("SetRows(%d, stride %d): In %d, len(WT) %d", rows, src.stride, d.In, len(d.WT))
			}
			for k, v := range d.WT {
				if math.Float64bits(v) != math.Float64bits(packed.WT[k]) {
					t.Fatalf("SetRows(%d, stride %d): WT[%d] = %v, Pack gives %v", rows, src.stride, k, v, packed.WT[k])
				}
			}
		}
	}
}

// BenchmarkDenseForward runs the default MLP's seven layers (45 → 90 → 89 →
// 69 → 49 → 29 → 9 → 1) over a 256-row block on every body this CPU has,
// float64 and float32. ns/row is the figure to compare.
func BenchmarkDenseForward(b *testing.B) {
	benchDenseForward(b, denseBodies, randVec)
	benchDenseForward(b, dense32Bodies, randVec32)
}

func benchDenseForward[T Float](b *testing.B, bodies []denseBody[T], draw func(*rand.Rand, int) []T) {
	dims := []int{45, 90, 89, 69, 49, 29, 9, 1}
	const rows = 256
	rng := rand.New(rand.NewSource(31))
	layers := make([]*DenseOf[T], len(dims)-1)
	for l := range layers {
		in, out := dims[l], dims[l+1]
		layers[l] = NewDenseOf[T](in, out)
		layers[l].Pack(randVec(rng, in*out), randVec(rng, out))
	}
	x := draw(rng, rows*dims[0])
	bufs := [2][]T{make([]T, rows*96), make([]T, rows*96)}
	for _, body := range bodies {
		b.Run(body.name, func(b *testing.B) {
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				h, stride := x, dims[0]
				for l, d := range layers {
					body.run(d, bufs[l&1], d.OutPad, h, stride, rows)
					h, stride = bufs[l&1], d.OutPad
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
