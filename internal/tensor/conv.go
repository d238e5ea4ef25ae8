package tensor

import "fmt"

// ConvOut returns the output spatial size of a convolution with the given
// input size, kernel, stride, and symmetric zero padding.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col lowers one [C,H,W] image into a [outH*outW, C*kh*kw] matrix where
// every row holds the receptive field of one output position. Zero padding
// is applied implicitly.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if len(x.shape) != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires [C,H,W], got %v", x.shape))
	}
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	cols := New(oh*ow, c*kh*kw)
	im2colRaw(cols.data, x.data, c, h, w, kh, kw, stride, pad)
	return cols
}

// im2colRaw lowers one [C,H,W] raw image into cols [outH*outW, C*kh*kw].
// Output rows are disjoint, so the lowering is sharded over the worker pool
// for large images (each row is written identically on every path).
func im2colRaw(cols, x []float32, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	nc := chunks(oh, oh*ow*c*kh*kw)
	if nc == 1 {
		im2colRows(cols, x, c, h, w, kh, kw, stride, pad, 0, oh)
		return
	}
	parallelFor(oh, nc, func(_, y0, y1 int) {
		im2colRows(cols, x, c, h, w, kh, kw, stride, pad, y0, y1)
	})
}

// im2colRows lowers output rows [y0,y1) of one image.
func im2colRows(cols, x []float32, c, h, w, kh, kw, stride, pad, y0, y1 int) {
	ow := ConvOut(w, kw, stride, pad)
	for oy := y0; oy < y1; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := cols[(oy*ow+ox)*c*kh*kw:]
			idx := 0
			for ch := 0; ch < c; ch++ {
				plane := x[ch*h*w:]
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							row[idx] = plane[iy*w+ix]
						} else {
							row[idx] = 0
						}
						idx++
					}
				}
			}
		}
	}
}

// Col2Im scatters a [outH*outW, C*kh*kw] matrix back onto a [C,H,W] image,
// accumulating overlapping contributions. It is the adjoint of Im2Col and is
// used in convolution backward passes and transposed convolutions.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if cols.shape[0] != oh*ow || cols.shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with image [%d,%d,%d] k=%dx%d s=%d p=%d", cols.shape, c, h, w, kh, kw, stride, pad))
	}
	img := New(c, h, w)
	col2imRaw(img.data, cols.data, c, h, w, kh, kw, stride, pad)
	return img
}

// col2imRaw scatters cols back onto a [C,H,W] raw image buffer (img is
// zeroed first). Output rows of the scatter overlap, so the parallel axis is
// channels: each channel plane receives its contributions from exactly one
// worker. Serially the row-major loop is preferred — it reads cols exactly
// once in storage order, where the channel-major loop re-walks it per
// channel. Both orders deliver every output element its contributions in
// the same ascending (oy, ox) sequence (an element only receives from its
// own channel's columns), so the accumulation is bit-identical either way
// and for every worker count.
func col2imRaw(img, cols []float32, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	ckk := c * kh * kw
	nc := chunks(c, oh*ow*ckk)
	if nc == 1 {
		col2imRowMajor(img, cols, c, h, w, kh, kw, stride, pad)
		return
	}
	parallelFor(c, nc, func(_, c0, c1 int) {
		for ch := c0; ch < c1; ch++ {
			plane := img[ch*h*w : (ch+1)*h*w]
			for i := range plane {
				plane[i] = 0
			}
			base := ch * kh * kw
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := cols[(oy*ow+ox)*ckk+base:]
					idx := 0
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							idx += kw
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride - pad + kx
							if ix >= 0 && ix < w {
								plane[iy*w+ix] += row[idx]
							}
							idx++
						}
					}
				}
			}
		}
	})
}

// col2imRowMajor is the cache-friendly serial scatter: one sequential pass
// over cols in storage order.
func col2imRowMajor(img, cols []float32, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	ckk := c * kh * kw
	for i := 0; i < c*h*w; i++ {
		img[i] = 0
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := cols[(oy*ow+ox)*ckk:]
			idx := 0
			for ch := 0; ch < c; ch++ {
				plane := img[ch*h*w : (ch+1)*h*w]
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						idx += kw
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if ix >= 0 && ix < w {
							plane[iy*w+ix] += row[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// Conv2d performs a batched 2-D convolution.
// x is [B,C,H,W], weight is [outC, C, kh, kw], bias is [outC] or nil.
// Returns [B, outC, outH, outW].
func Conv2d(x, weight, bias *Tensor, stride, pad int) *Tensor {
	b := x.shape[0]
	oc, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
	oh, ow := ConvOut(x.shape[2], kh, stride, pad), ConvOut(x.shape[3], kw, stride, pad)
	out := New(b, oc, oh, ow)
	Conv2dInto(nil, out, x, weight, bias, stride, pad)
	return out
}

// scratch borrows a [rows, size] slab from p, or allocates fresh when p is
// nil. Kernels borrow one slab per scratch kind before dispatch, with one
// row per chunk (see part), so the pool sees the same traffic at every
// worker count and under every schedule.
func scratch(p *Pool, rows, size int) *Tensor {
	if p == nil {
		return New(rows, size)
	}
	return p.Get(rows, size)
}

// part returns row i of a scratch slab: chunk i's private buffer.
func part(slab *Tensor, i int) []float32 {
	n := slab.shape[1]
	return slab.data[i*n : (i+1)*n]
}

// unscratch returns slabs to p (nil slabs and a nil pool are no-ops).
func unscratch(p *Pool, ts ...*Tensor) {
	if p == nil {
		return
	}
	for _, t := range ts {
		p.Put(t)
	}
}

// Conv2dInto performs a batched 2-D convolution into dst [B,outC,oh,ow],
// overwriting it. The im2col and product slabs are borrowed from p when
// non-nil, making the steady-state kernel allocation-free.
func Conv2dInto(p *Pool, dst, x, weight, bias *Tensor, stride, pad int) {
	if len(x.shape) != 4 || len(weight.shape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2d requires x [B,C,H,W] and weight [O,C,kh,kw], got %v and %v", x.shape, weight.shape))
	}
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc, kc, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if kc != c {
		panic(fmt.Sprintf("tensor: Conv2d channel mismatch x=%v weight=%v", x.shape, weight.shape))
	}
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if len(dst.data) != b*oc*oh*ow {
		panic(fmt.Sprintf("tensor: Conv2dInto destination %v incompatible", dst.shape))
	}
	wmat := weight.Reshape(oc, c*kh*kw)
	var biasData []float32
	if bias != nil {
		biasData = bias.data
	}
	hk, t0 := kernelStart()
	// Samples are independent: shard the batch over the worker pool.
	np, ckk := oh*ow, c*kh*kw
	nc := chunks(b, b*np*oc*ckk)
	cols, prod := scratch(p, nc, np*ckk), scratch(p, nc, np*oc)
	parallelFor(b, nc, func(ci, i0, i1 int) {
		cc, pc := part(cols, ci), part(prod, ci)
		for i := i0; i < i1; i++ {
			im2colRaw(cc, x.data[i*c*h*w:(i+1)*c*h*w], c, h, w, kh, kw, stride, pad)
			matMulTransBRaw(pc, cc, wmat.data, np, ckk, oc) // [np, oc]
			transposeScatterBias(dst.data[i*oc*np:(i+1)*oc*np], pc, biasData, oc, np)
		}
	})
	unscratch(p, cols, prod)
	kernelEnd(hk, t0, KernelConv)
}

// transposeScatterBias transposes prod [np, oc] into dst [oc, np] in square
// cache-resident tiles, folding the bias add into the same pass. Each dst
// element is produced by a single rounded add (prod + bias), exactly what
// the historical copy-then-add loops computed.
func transposeScatterBias(dst, prod, bias []float32, oc, np int) {
	const tb = 32
	for o0 := 0; o0 < oc; o0 += tb {
		o1 := o0 + tb
		if o1 > oc {
			o1 = oc
		}
		for p0 := 0; p0 < np; p0 += tb {
			p1 := p0 + tb
			if p1 > np {
				p1 = np
			}
			for o := o0; o < o1; o++ {
				dr := dst[o*np:]
				if bias != nil {
					bv := bias[o]
					for pp := p0; pp < p1; pp++ {
						dr[pp] = prod[pp*oc+o] + bv
					}
				} else {
					for pp := p0; pp < p1; pp++ {
						dr[pp] = prod[pp*oc+o]
					}
				}
			}
		}
	}
}

// Conv2dBackward computes the gradients of a Conv2d given the upstream
// gradient gy [B,outC,outH,outW]. It returns (gx, gw, gb); gb is nil when
// bias was nil.
func Conv2dBackward(x, weight *Tensor, hasBias bool, gy *Tensor, stride, pad int) (gx, gw, gb *Tensor) {
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
	gx = New(b, c, h, w)
	gw = New(oc, c, kh, kw)
	if hasBias {
		gb = New(oc)
	}
	Conv2dBackwardInto(nil, gx, gw, gb, x, weight, gy, stride, pad)
	return gx, gw, gb
}

// Conv2dBackwardInto computes convolution gradients into pre-allocated
// gx [B,C,H,W] and gw [O,C,kh,kw] (both overwritten) and accumulates the
// bias gradient into gb when non-nil (gb must be pre-zeroed by the caller or
// freshly borrowed with GetZero). gw may be nil to skip the weight gradient
// entirely (attack oracles differentiate w.r.t. the input only). Scratch is
// borrowed from p when non-nil.
func Conv2dBackwardInto(p *Pool, gx, gw, gb, x, weight, gy *Tensor, stride, pad int) {
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	np, ckk := oh*ow, c*kh*kw
	wmat := weight.Reshape(oc, ckk)
	hk, t0 := kernelStart()

	// gx is per-sample disjoint and parallelizes directly. The gw/gb
	// reductions cross samples, so the parallel phase only writes per-sample
	// partials; the cross-sample sum happens serially below, in ascending
	// sample order, reproducing the historical accumulation bit-for-bit.
	var gwPart, gbPart, cols *Tensor
	nc := chunks(b, 2*b*np*oc*ckk)
	if gw != nil {
		gwPart, cols = scratch(p, b, oc*ckk), scratch(p, nc, np*ckk)
	}
	if gb != nil {
		gbPart = scratch(p, b, oc)
	}
	gyMat, gcols := scratch(p, nc, np*oc), scratch(p, nc, np*ckk)
	parallelFor(b, nc, func(ci, i0, i1 int) {
		gm, gc := part(gyMat, ci), part(gcols, ci)
		for i := i0; i < i1; i++ {
			gyData := gy.data[i*oc*np : (i+1)*oc*np] // [oc, oh, ow]
			// gm [np, oc]
			for o := 0; o < oc; o++ {
				plane := gyData[o*np : (o+1)*np]
				for pp, v := range plane {
					gm[pp*oc+o] = v
				}
				if gbPart != nil {
					var s float32
					for _, v := range plane {
						s += v
					}
					gbPart.data[i*oc+o] = s
				}
			}
			if gw != nil {
				// Per-sample partial gmᵀ @ cols into this sample's row.
				cc := part(cols, ci)
				im2colRaw(cc, x.data[i*c*h*w:(i+1)*c*h*w], c, h, w, kh, kw, stride, pad)
				gwRow := part(gwPart, i)
				for j := range gwRow {
					gwRow[j] = 0
				}
				transAOuter(gwRow, gm, cc, oc, np, ckk)
			}
			// gc = gm @ wmat, then scatter back
			matMulInto(gc, gm, wmat.data, np, oc, ckk)
			col2imRaw(gx.data[i*c*h*w:(i+1)*c*h*w], gc, c, h, w, kh, kw, stride, pad)
		}
	})
	if gw != nil {
		gw.Zero()
		for i := 0; i < b; i++ {
			saxpy(gw.data, part(gwPart, i), 1)
		}
	}
	if gb != nil {
		for i := 0; i < b; i++ {
			for o, v := range part(gbPart, i) {
				gb.data[o] += v
			}
		}
	}
	unscratch(p, gyMat, gcols, cols, gwPart, gbPart)
	kernelEnd(hk, t0, KernelConv)
}

// ConvTranspose2d applies a transposed convolution (fractionally-strided
// convolution) mapping [B,C,H,W] with kernel [C, outC, kh, kw] to
// [B, outC, outH, outW] where outH = (H-1)*stride - 2*pad + kh. This is the
// geometric upsampling used by the BPDA-style attack on the adjoint (§V-B).
func ConvTranspose2d(x, weight *Tensor, stride, pad int) *Tensor {
	if len(x.shape) != 4 || len(weight.shape) != 4 {
		panic(fmt.Sprintf("tensor: ConvTranspose2d requires x [B,C,H,W] and weight [C,O,kh,kw], got %v and %v", x.shape, weight.shape))
	}
	h, w := x.shape[2], x.shape[3]
	oc, kh, kw := weight.shape[1], weight.shape[2], weight.shape[3]
	oh := (h-1)*stride - 2*pad + kh
	ow := (w-1)*stride - 2*pad + kw
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: ConvTranspose2d output would be empty (%dx%d)", oh, ow))
	}
	out := New(x.shape[0], oc, oh, ow)
	ConvTranspose2dInto(nil, out, x, weight, stride, pad)
	return out
}

// ConvTranspose2dInto performs the transposed convolution into the
// pre-allocated dst [B,outC,outH,outW], overwriting it, with scratch
// borrowed from p when non-nil. Instead of the naive scalar scatter it runs
// the adjoint of the im2col convolution: per sample, lift x [C,h,w] to
// [h*w, C], multiply by the [C, outC*kh*kw] kernel matrix through the
// blocked matmul, and Col2Im-scatter the result onto the output grid. The
// batch is sharded over the worker pool; each sample stays serial, so
// results are bit-identical for every worker count.
func ConvTranspose2dInto(p *Pool, dst, x, weight *Tensor, stride, pad int) {
	if len(x.shape) != 4 || len(weight.shape) != 4 {
		panic(fmt.Sprintf("tensor: ConvTranspose2dInto requires x [B,C,H,W] and weight [C,O,kh,kw], got %v and %v", x.shape, weight.shape))
	}
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	wc, oc, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if wc != c {
		panic(fmt.Sprintf("tensor: ConvTranspose2dInto channel mismatch x=%v weight=%v", x.shape, weight.shape))
	}
	oh := (h-1)*stride - 2*pad + kh
	ow := (w-1)*stride - 2*pad + kw
	if len(dst.data) != b*oc*oh*ow {
		panic(fmt.Sprintf("tensor: ConvTranspose2dInto destination %v incompatible", dst.shape))
	}
	okk := oc * kh * kw
	wmat := weight.Reshape(c, okk)
	hk, t0 := kernelStart()
	nc := chunks(b, b*h*w*c*okk)
	xT, gcols := scratch(p, nc, h*w*c), scratch(p, nc, h*w*okk)
	parallelFor(b, nc, func(ci, i0, i1 int) {
		xc, gc := part(xT, ci), part(gcols, ci)
		for i := i0; i < i1; i++ {
			// x sample [c, h*w] -> xc [h*w, c]
			transposeScatterBias(xc, x.data[i*c*h*w:(i+1)*c*h*w], nil, h*w, c)
			matMulInto(gc, xc, wmat.data, h*w, c, okk)
			// The (h,w) grid is exactly the conv-output grid of the adjoint
			// ((oh+2*pad-kh)/stride+1 == h), so Col2Im scatters gc onto
			// the upsampled [oc,oh,ow] sample.
			col2imRaw(dst.data[i*oc*oh*ow:(i+1)*oc*oh*ow], gc, oc, oh, ow, kh, kw, stride, pad)
		}
	})
	unscratch(p, xT, gcols)
	kernelEnd(hk, t0, KernelConv)
}

// MaxPool2d applies max pooling with square window k and stride s over a
// [B,C,H,W] tensor. It returns the pooled tensor and the flat argmax index
// (within each sample's [C,H,W] layout) of every output element, used by the
// backward pass.
func MaxPool2d(x *Tensor, k, s int) (*Tensor, []int) {
	b, c := x.shape[0], x.shape[1]
	oh, ow := ConvOut(x.shape[2], k, s, 0), ConvOut(x.shape[3], k, s, 0)
	out, idx := New(b, c, oh, ow), make([]int, b*c*oh*ow)
	MaxPool2dIdxInto(out, x, k, s, idx)
	return out, idx
}

// MaxPool2dIdxInto max-pools x into the pre-allocated out [B,C,oh,ow],
// overwriting it, and stores the per-element argmax indices for the
// backward pass into the caller-provided (e.g. pooled) idx of length
// B*C*oh*ow.
func MaxPool2dIdxInto(out, x *Tensor, k, s int, idx []int) {
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, k, s, 0), ConvOut(w, k, s, 0)
	if len(out.data) != b*c*oh*ow || len(idx) != b*c*oh*ow {
		panic(fmt.Sprintf("tensor: MaxPool2dIdxInto destination %v incompatible", out.shape))
	}
	for i := 0; i < b; i++ {
		xi := x.data[i*c*h*w : (i+1)*c*h*w]
		oi := out.data[i*c*oh*ow : (i+1)*c*oh*ow]
		for ch := 0; ch < c; ch++ {
			plane := xi[ch*h*w:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := -1
					var best float32
					for ky := 0; ky < k; ky++ {
						iy := oy*s + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s + kx
							if ix >= w {
								continue
							}
							v := plane[iy*w+ix]
							if bestIdx < 0 || v > best {
								best, bestIdx = v, ch*h*w+iy*w+ix
							}
						}
					}
					o := ch*oh*ow + oy*ow + ox
					oi[o] = best
					idx[i*c*oh*ow+o] = bestIdx
				}
			}
		}
	}
}

// AvgPool2dGlobal averages each channel plane of [B,C,H,W] to [B,C].
func AvgPool2dGlobal(x *Tensor) *Tensor {
	out := New(x.shape[0], x.shape[1])
	AvgPool2dGlobalInto(out, x)
	return out
}

// AvgPool2dGlobalInto averages each channel plane of x [B,C,H,W] into the
// pre-allocated out [B,C], overwriting it.
func AvgPool2dGlobalInto(out, x *Tensor) {
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if len(out.data) != b*c {
		panic(fmt.Sprintf("tensor: AvgPool2dGlobalInto destination %v incompatible", out.shape))
	}
	inv := 1 / float32(h*w)
	for i := 0; i < b; i++ {
		xi := x.data[i*c*h*w : (i+1)*c*h*w]
		for ch := 0; ch < c; ch++ {
			plane := xi[ch*h*w : (ch+1)*h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			out.data[i*c+ch] = s * inv
		}
	}
}

// Pad2d zero-pads the spatial dimensions of [B,C,H,W] by p on every side.
func Pad2d(x *Tensor, p int) *Tensor {
	out := New(x.shape[0], x.shape[1], x.shape[2]+2*p, x.shape[3]+2*p)
	Pad2dInto(out, x, p)
	return out
}

// Pad2dInto copies x into the interior of the pre-allocated out
// [B,C,H+2p,W+2p]. The padding border is NOT written: out must arrive
// zeroed (freshly allocated or Pool.GetZero).
func Pad2dInto(out, x *Tensor, p int) {
	b, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := h+2*p, w+2*p
	if len(out.data) != b*c*oh*ow {
		panic(fmt.Sprintf("tensor: Pad2dInto destination %v incompatible", out.shape))
	}
	for i := 0; i < b; i++ {
		xi := x.data[i*c*h*w : (i+1)*c*h*w]
		oi := out.data[i*c*oh*ow : (i+1)*c*oh*ow]
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				src := xi[ch*h*w+y*w : ch*h*w+(y+1)*w]
				dst := oi[ch*oh*ow+(y+p)*ow+p:]
				copy(dst[:w], src)
			}
		}
	}
}

// Unpad2d removes p rows/cols from every side of the spatial dims, the
// adjoint of Pad2d.
func Unpad2d(x *Tensor, p int) *Tensor {
	b, c, oh, ow := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(b, c, oh-2*p, ow-2*p)
	Unpad2dInto(out, x, p)
	return out
}

// Unpad2dInto crops the p-wide border of x [B,C,H,W] into the pre-allocated
// out [B,C,H-2p,W-2p], overwriting every element.
func Unpad2dInto(out, x *Tensor, p int) {
	b, c, oh, ow := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	h, w := oh-2*p, ow-2*p
	if len(out.data) != b*c*h*w {
		panic(fmt.Sprintf("tensor: Unpad2dInto destination %v incompatible", out.shape))
	}
	for i := 0; i < b; i++ {
		xi := x.data[i*c*oh*ow : (i+1)*c*oh*ow]
		oi := out.data[i*c*h*w : (i+1)*c*h*w]
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				src := xi[ch*oh*ow+(y+p)*ow+p:]
				copy(oi[ch*h*w+y*w:ch*h*w+(y+1)*w], src[:w])
			}
		}
	}
}
