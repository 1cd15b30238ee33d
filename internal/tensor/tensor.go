// Package tensor provides the dense float32 tensor type and the handful of
// linear-algebra primitives (GEMM, im2col) the training and inference
// stacks are built on.
//
// Convolutions throughout the repository are lowered to matrix
// multiplication following the GEMM-based algorithms of Anderson et al.
// (cited as [2] in the paper), which is also the lowering HAWAII⁺ uses on
// the LEA; keeping the training-side math in the same shape as the
// device-side math is what lets one tiling description drive both.
package tensor

import "fmt"

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zeroed tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromData wraps an existing slice; the slice is not copied.
func FromData(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// At returns the element at the given multi-index (bounds-checked through
// the flat index computation; primarily for tests and small paths).
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.flat(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.flat(idx)] = v
}

func (t *Tensor) flat(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Gemm computes C = A·B (+C if accumulate) for row-major matrices:
// A is m×k, B is k×n, C is m×n. The k-inner/j-unrolled loop order keeps B
// accesses sequential, which matters on the single-core interpreter-free
// hot path this repo trains on.
//
//iprune:hotpath
//iprune:allow-budget training-time float kernel; runs on the workstation and never inside a harvested power cycle
func Gemm(a, b, c []float32, m, k, n int, accumulate bool) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: gemm buffer too small")
	}
	if !accumulate {
		for i := range c[:m*n] {
			c[i] = 0
		}
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// GemmTA computes C = Aᵀ·B where A is k×m (so Aᵀ is m×k), B is k×n,
// C is m×n. Used by backprop for weight gradients.
func GemmTA(a, b, c []float32, m, k, n int, accumulate bool) {
	if !accumulate {
		for i := range c[:m*n] {
			c[i] = 0
		}
	}
	for p := 0; p < k; p++ {
		arow := a[p*m : p*m+m]
		brow := b[p*n : p*n+n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := c[i*n : i*n+n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// GemmTB computes C = A·Bᵀ where A is m×k, B is n×k, C is m×n. Used by
// backprop for input gradients.
func GemmTB(a, b, c []float32, m, k, n int, accumulate bool) {
	if !accumulate {
		for i := range c[:m*n] {
			c[i] = 0
		}
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s float32
			for p := range arow {
				s += arow[p] * brow[p]
			}
			crow[j] += s
		}
	}
}

// ConvGeom describes the spatial geometry of a 2-D convolution.
type ConvGeom struct {
	InC, InH, InW int
	OutC          int
	KH, KW        int
	StrideH       int
	StrideW       int
	PadH, PadW    int
	OutH, OutW    int // derived; filled by Derive
}

// Derive fills OutH/OutW from the other fields and validates them.
func (g *ConvGeom) Derive() error {
	if g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("tensor: non-positive stride in %+v", *g)
	}
	g.OutH = (g.InH+2*g.PadH-g.KH)/g.StrideH + 1
	g.OutW = (g.InW+2*g.PadW-g.KW)/g.StrideW + 1
	if g.OutH <= 0 || g.OutW <= 0 {
		return fmt.Errorf("tensor: conv geometry produces empty output: %+v", *g)
	}
	return nil
}

// K returns the GEMM reduction dimension of the lowered convolution.
func (g *ConvGeom) K() int { return g.InC * g.KH * g.KW }

// N returns the GEMM output-column dimension of the lowered convolution.
func (g *ConvGeom) N() int { return g.OutH * g.OutW }

// Im2col lowers an input feature map (C×H×W, flattened) into the K×N
// patch matrix such that W·col = output, zero padding included. col must
// have length K()*N(). It serves float32 training and the Q15 engine.
func Im2col[E any](g *ConvGeom, in, col []E) {
	if len(in) < g.InC*g.InH*g.InW {
		panic("tensor: im2col input too small")
	}
	n := g.N()
	if len(col) < g.K()*n {
		panic("tensor: im2col output too small")
	}
	var zero E
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := in[c*g.InH*g.InW:]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				dst := col[row*n:]
				i := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < g.OutW; ow++ {
							dst[i] = zero
							i++
						}
						continue
					}
					base := ih * g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							dst[i] = zero
						} else {
							dst[i] = plane[base+iw]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// Col2im scatters gradients from the patch-matrix layout back to the input
// feature map layout, accumulating overlapping contributions. in is zeroed
// first.
func Col2im(g *ConvGeom, col, in []float32) {
	for i := range in[:g.InC*g.InH*g.InW] {
		in[i] = 0
	}
	n := g.N()
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := in[c*g.InH*g.InW:]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				src := col[row*n:]
				i := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						i += g.OutW
						continue
					}
					base := ih * g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw >= 0 && iw < g.InW {
							plane[base+iw] += src[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}
