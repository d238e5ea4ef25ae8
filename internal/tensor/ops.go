package tensor

import (
	"fmt"
	"math"
)

// fresh returns a new tensor shaped like a, filled by into: the heap form
// of an Into kernel.
func fresh(a *Tensor, into func(dst *Tensor)) *Tensor {
	out := New(a.shape...)
	into(out)
	return out
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor { return fresh(a, func(dst *Tensor) { AddInto(dst, a, b) }) }

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor { return fresh(a, func(dst *Tensor) { SubInto(dst, a, b) }) }

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor { return fresh(a, func(dst *Tensor) { MulInto(dst, a, b) }) }

// AddIn accumulates src into dst in place.
func AddIn(dst, src *Tensor) { AddInto(dst, dst, src) }

// AddScaledIn performs dst += alpha*src in place (axpy).
func AddScaledIn(dst *Tensor, alpha float32, src *Tensor) {
	if len(dst.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: AddScaledIn size mismatch %v vs %v", dst.shape, src.shape))
	}
	for i := range dst.data {
		dst.data[i] += alpha * src.data[i]
	}
}

// Scale returns alpha*a.
func Scale(a *Tensor, alpha float32) *Tensor {
	return fresh(a, func(dst *Tensor) { ScaleInto(dst, a, alpha) })
}

// ScaleIn multiplies a by alpha in place.
func ScaleIn(a *Tensor, alpha float32) { ScaleInto(a, a, alpha) }

// AddScalar returns a + c.
func AddScalar(a *Tensor, c float32) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = v + c
	}
	return out
}

// Apply returns f applied elementwise.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	return fresh(a, func(dst *Tensor) { ApplyInto(dst, a, f) })
}

// ApplyIn applies f elementwise in place.
func ApplyIn(a *Tensor, f func(float32) float32) { ApplyInto(a, a, f) }

// Sign returns the elementwise sign of a (-1, 0, or +1).
func Sign(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		default:
			return 0
		}
	})
}

// Abs returns |a| elementwise.
func Abs(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 {
		if v < 0 {
			return -v
		}
		return v
	})
}

// Exp returns e^a elementwise.
func Exp(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Exp(float64(v))) })
}

// Log returns ln(a) elementwise.
func Log(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Log(float64(v))) })
}

// Sqrt returns sqrt(a) elementwise.
func Sqrt(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Sqrt(float64(v))) })
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Tanh(float64(v))) })
}

// Clamp returns a with every element clipped into [lo, hi].
func Clamp(a *Tensor, lo, hi float32) *Tensor {
	out := a.Clone()
	ClampIn(out, lo, hi)
	return out
}

// ClampIn clips in place.
func ClampIn(a *Tensor, lo, hi float32) {
	ApplyIn(a, func(v float32) float32 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	})
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Sum returns the sum of all elements in float64 for accuracy.
func Sum(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float64 {
	if len(a.data) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a.data))
}

// Max returns the maximum element and its flat index.
func Max(a *Tensor) (float32, int) {
	if len(a.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, at := a.data[0], 0
	for i, v := range a.data {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

// Argmax returns the flat index of the maximum element.
func Argmax(a *Tensor) int {
	_, at := Max(a)
	return at
}

// ArgmaxRows returns, for a 2-D tensor, the argmax of every row.
func ArgmaxRows(a *Tensor) []int {
	if len(a.shape) != 2 {
		panic("tensor: ArgmaxRows requires a 2-D tensor")
	}
	rows, cols := a.shape[0], a.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best := a.data[r*cols]
		for c := 1; c < cols; c++ {
			if v := a.data[r*cols+c]; v > best {
				best = v
				out[r] = c
			}
		}
	}
	return out
}

// Dot returns the inner product of two equal-length tensors.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %v vs %v", a.shape, b.shape))
	}
	s := 0.0
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// NormL2 returns the Euclidean norm.
func NormL2(a *Tensor) float64 { return math.Sqrt(Dot(a, a)) }

// NormLInf returns the maximum absolute element.
func NormLInf(a *Tensor) float64 {
	m := 0.0
	for _, v := range a.data {
		av := math.Abs(float64(v))
		if av > m {
			m = av
		}
	}
	return m
}

// SoftmaxRows returns row-wise softmax of a 2-D tensor, numerically
// stabilized by the row max.
func SoftmaxRows(a *Tensor) *Tensor {
	return fresh(a, func(dst *Tensor) { SoftmaxRowsInto(dst, a) })
}

// checkSameLen panics unless all operands have equal element counts.
func checkSameLen(op string, dst *Tensor, srcs ...*Tensor) {
	for _, s := range srcs {
		if len(dst.data) != len(s.data) {
			panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, dst.shape, s.shape))
		}
	}
}

// AddInto stores a + b into dst. dst may alias either operand.
func AddInto(dst, a, b *Tensor) {
	checkSameLen("AddInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
}

// SubInto stores a - b into dst. dst may alias either operand.
func SubInto(dst, a, b *Tensor) {
	checkSameLen("SubInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
}

// MulInto stores a ⊙ b into dst. dst may alias either operand.
func MulInto(dst, a, b *Tensor) {
	checkSameLen("MulInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = a.data[i] * b.data[i]
	}
}

// ScaleInto stores alpha*a into dst. dst may alias a.
func ScaleInto(dst, a *Tensor, alpha float32) {
	checkSameLen("ScaleInto", dst, a)
	for i := range dst.data {
		dst.data[i] = alpha * a.data[i]
	}
}

// ApplyInto stores f applied elementwise over a into dst. dst may alias a.
func ApplyInto(dst, a *Tensor, f func(float32) float32) {
	checkSameLen("ApplyInto", dst, a)
	for i := range dst.data {
		dst.data[i] = f(a.data[i])
	}
}

// SoftmaxRowsInto stores the row-wise softmax of a 2-D tensor into dst,
// numerically stabilized by the row max. dst may alias a.
func SoftmaxRowsInto(dst, a *Tensor) {
	if len(a.shape) != 2 {
		panic("tensor: SoftmaxRowsInto requires a 2-D tensor")
	}
	checkSameLen("SoftmaxRowsInto", dst, a)
	SoftmaxRowsRaw(dst.data, a.data, a.shape[0], a.shape[1])
}

// SoftmaxRowsRaw is SoftmaxRowsInto on raw buffers interpreted as
// [rows, cols] row-major.
func SoftmaxRowsRaw(dst, a []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := a[r*cols : (r+1)*cols]
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		o := dst[r*cols : (r+1)*cols]
		for i, v := range row {
			e := math.Exp(float64(v - mx))
			o[i] = float32(e)
			sum += e
		}
		inv := float32(1.0 / sum)
		for i := range o {
			o[i] *= inv
		}
	}
}

// AddRowVectorRaw adds a length-cols vector to every row of a [rows, cols]
// raw buffer in place.
func AddRowVectorRaw(a []float32, rows, cols int, v []float32) {
	for r := 0; r < rows; r++ {
		row := a[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v[c]
		}
	}
}

// SumRowsRaw stores the column-wise sum of a [rows, cols] raw buffer into
// dst [cols], overwriting it.
func SumRowsRaw(dst, a []float32, rows, cols int) {
	for c := range dst {
		dst[c] = 0
	}
	for r := 0; r < rows; r++ {
		row := a[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c] += v
		}
	}
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	rows, cols := a.shape[0], a.shape[1]
	out := New(cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.data[c*rows+r] = a.data[r*cols+c]
		}
	}
	return out
}
