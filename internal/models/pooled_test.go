package models

import (
	"testing"

	"pelta/internal/autograd"
	"pelta/internal/tensor"
)

// pooledModels returns small instances of every architecture family, built
// twice from the same seed so the pooled and heap passes see identical
// weights through shared parameters.
func pooledModels(t *testing.T) []Model {
	t.Helper()
	rng := tensor.NewRNG(77)
	vit := NewViT(SmallViT("pool-vit", 7, 16, 4), rng)
	bit := NewBiT(BiTConfig{
		Name: "pool-bit", InputC: 3, InputHW: 16, StemK: 3, StemStride: 1,
		StageBlocks: []int{1, 1}, BaseWidth: 8, WidthFactor: 1, Groups: 4, Classes: 7,
	}, rng)
	rn := NewResNet(ResNetConfig{
		Name: "pool-rn", InputC: 3, InputHW: 16,
		Widths: [3]int{4, 8, 8}, BlocksPerStep: 1, Classes: 7,
	}, rng)
	return []Model{vit, bit, rn}
}

// runPass records one forward+backward on g and returns the logits and the
// input gradient (cloned, so arena recycling cannot disturb the comparison).
func runPass(m Model, g *autograd.Graph, x *tensor.Tensor, y []int) (*tensor.Tensor, *tensor.Tensor) {
	in := g.Input(x, "x")
	_, logits := m.Forward(g, in)
	loss, _ := g.CrossEntropy(logits, y, autograd.ReduceSum)
	g.Backward(loss)
	return logits.Data.Clone(), in.Grad.Clone()
}

// TestPooledPassBitIdenticalToHeapPass is the core property of the pooled
// execution engine: borrowing every tensor from a Pool and recycling the
// arena between passes must not change a single bit of the forward results
// or the input gradients, for every model family, across repeated arena
// reuse (the steady state iterative attacks live in). Warm passes must run
// entirely off recycled buffers with identical pool traffic, at every
// kernel worker count — scratch ownership must not depend on scheduling.
func TestPooledPassBitIdenticalToHeapPass(t *testing.T) {
	const warmup, steady = 3, 5
	rng := tensor.NewRNG(123)
	for _, m := range pooledModels(t) {
		x := rng.Uniform(0, 1, 2, 3, 16, 16)
		y := []int{1, 4}

		heapLogits, heapGrad := runPass(m, autograd.NewGraph(), x, y)
		clearGrads(m)

		for _, workers := range []int{1, 2, 4} {
			func() {
				defer tensor.SetKernelWorkers(tensor.SetKernelWorkers(workers))
				pool := tensor.NewPool()
				pg := autograd.NewGraphWithPool(pool)
				var warmGets int64
				for pass := 0; pass < warmup+steady; pass++ {
					before := pool.Stats()
					pg.Release()
					logits, grad := runPass(m, pg, x, y)
					clearGrads(m)
					after := pool.Stats()
					if !logits.AllClose(heapLogits, 0) {
						t.Fatalf("%s workers=%d pass %d: pooled logits differ from heap logits", m.Name(), workers, pass)
					}
					if !grad.AllClose(heapGrad, 0) {
						t.Fatalf("%s workers=%d pass %d: pooled ∇x differs from heap ∇x", m.Name(), workers, pass)
					}
					if pass < warmup {
						continue
					}
					// After warmup the arena must run entirely off recycled
					// buffers, borrowing the same number every pass.
					gets := after.Gets - before.Gets
					if misses := after.Misses - before.Misses; misses != 0 {
						t.Fatalf("%s workers=%d pass %d: steady-state pass allocated %d fresh buffers (of %d gets)",
							m.Name(), workers, pass, misses, gets)
					}
					if pass > warmup && gets != warmGets {
						t.Fatalf("%s workers=%d pass %d: %d pool gets, previous warm pass had %d",
							m.Name(), workers, pass, gets, warmGets)
					}
					warmGets = gets
				}
			}()
		}
	}
}

// TestPooledParamGradsMatchHeap checks the training path: with parameter
// tracking on, pooled passes accumulate exactly the same parameter
// gradients as heap passes.
func TestPooledParamGradsMatchHeap(t *testing.T) {
	rng := tensor.NewRNG(321)
	for _, m := range pooledModels(t) {
		x := rng.Uniform(0, 1, 2, 3, 16, 16)
		y := []int{0, 2}

		runPass(m, autograd.NewGraph(), x, y)
		want := make(map[string]*tensor.Tensor)
		for _, p := range m.Params() {
			want[p.Name] = p.Grad.Clone()
		}
		clearGrads(m)

		pg := autograd.NewGraphWithPool(tensor.NewPool())
		runPass(m, pg, x, y)
		for _, p := range m.Params() {
			if !p.Grad.AllClose(want[p.Name], 0) {
				t.Fatalf("%s: pooled grad of %s differs from heap grad", m.Name(), p.Name)
			}
		}
		clearGrads(m)
	}
}

// TestSkipParamGradsLeavesParamsUntouched checks the attack-oracle mode:
// with tracking off, a backward pass must not move any parameter gradient,
// while the input gradient stays bit-identical.
func TestSkipParamGradsLeavesParamsUntouched(t *testing.T) {
	rng := tensor.NewRNG(55)
	for _, m := range pooledModels(t) {
		x := rng.Uniform(0, 1, 2, 3, 16, 16)
		y := []int{3, 5}

		_, heapGrad := runPass(m, autograd.NewGraph(), x, y)
		clearGrads(m)

		pg := autograd.NewGraphWithPool(tensor.NewPool())
		pg.SetTrackParamGrads(false)
		_, grad := runPass(m, pg, x, y)
		if !grad.AllClose(heapGrad, 0) {
			t.Fatalf("%s: ∇x with param tracking off differs", m.Name())
		}
		for _, p := range m.Params() {
			for _, v := range p.Grad.Data() {
				if v != 0 {
					t.Fatalf("%s: parameter %s accumulated gradient despite tracking off", m.Name(), p.Name)
				}
			}
		}
	}
}

func clearGrads(m Model) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}
