package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pelta/internal/attack"
	"pelta/internal/autograd"
	"pelta/internal/core"
	"pelta/internal/models"
	"pelta/internal/obs"
	"pelta/internal/tensor"
)

// The probe phase is the compromised node's white-box crafting loop: one
// attacker, a closed loop, cycling PGD and APGD with fixed steps over
// batches of correctly classified samples, against the shielded defender
// and against its clear twin.

const (
	attackEps   = 0.1
	attackStep  = 0.0125
	attackSteps = 10
	// shieldGapFloor is how far shielded robust accuracy must stay above
	// the clear twin's.
	shieldGapFloor = 0.3
)

// cycleSeed seeds a crafting cycle: APGD's restarts and the attacker's
// upsampling kernel, a fresh prior on the shielded layers every cycle.
func cycleSeed(seed int64, cycle int) int64 { return seed*1000 + int64(cycle) }

func cycleAttacks(seed int64, cycle int) []attack.Attack {
	return []attack.Attack{
		&attack.PGD{Eps: attackEps, Step: attackStep, Steps: attackSteps},
		&attack.APGD{Eps: attackEps, Steps: attackSteps, Rho: 0.75, Restarts: 1, Seed: cycleSeed(seed, cycle)},
	}
}

// timedOracle times every query it forwards.
type timedOracle struct {
	attack.Oracle
	grad  dist          // gradient-query latencies
	busy  time.Duration // total time inside the wrapped oracle
	calls int
}

func (o *timedOracle) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	t0 := time.Now()
	g, l, err := o.Oracle.GradCE(x, y)
	d := time.Since(t0)
	o.grad.add(d)
	o.busy += d
	o.calls++
	return g, l, err
}

func (o *timedOracle) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	t0 := time.Now()
	l, err := o.Oracle.Logits(x)
	o.busy += time.Since(t0)
	o.calls++
	return l, err
}

// tracedShield answers shielded gradient queries exactly as
// attack.ShieldedOracle does — core.ShieldedModel.Query, then the
// attacker's upsampler on the adjoint — with a span around each step.
type tracedShield struct {
	attack.Oracle
	sm       *core.ShieldedModel
	up       *attack.Upsampler
	adjShape []int

	queries                int
	total, query, upsample time.Duration
	switches, bytesIn      int64
}

func newTracedShield(e *env) (*tracedShield, error) {
	res, err := e.sm.Query(e.batches[0].X, core.CrossEntropyLoss(e.batches[0].Y))
	if err != nil {
		return nil, err
	}
	return &tracedShield{Oracle: e.shield, sm: e.sm, adjShape: append([]int{1}, res.Adjoint.Shape()[1:]...)}, nil
}

// reseed draws the upsampling kernel as attack.ShieldedOracle.Reseed does,
// so the same seed gives the same kernel.
func (o *tracedShield) reseed(seed int64) error {
	up, err := attack.NewUpsampler(o.adjShape, o.sm.InputShape(), seed)
	o.up = up
	return err
}

func (o *tracedShield) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	m0 := o.sm.Enclave().Metrics()
	t0 := time.Now()
	res, err := o.sm.Query(x, core.CrossEntropyLoss(y))
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	grad, err := o.up.Apply(res.Adjoint)
	if err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	per := perSampleCE(res.Logits, y)
	t3 := time.Now()
	m1 := o.sm.Enclave().Metrics()
	o.queries++
	o.total += t3.Sub(t0)
	o.query += t1.Sub(t0)
	o.upsample += t2.Sub(t1)
	o.switches += m1.WorldSwitches - m0.WorldSwitches
	o.bytesIn += m1.BytesIn - m0.BytesIn
	return grad, per, nil
}

// perSampleCE is each sample's cross-entropy from clear logits, as the
// attacker computes it.
func perSampleCE(logits *tensor.Tensor, y []int) []float64 {
	probs := tensor.SoftmaxRows(logits)
	out := make([]float64, len(y))
	for i, yi := range y {
		out[i] = -math.Log(max(float64(probs.At(i, yi)), 1e-12))
	}
	return out
}

// tracedClear answers clear gradient queries exactly as attack.ClearOracle
// does — a pooled graph without parameter gradients, forward, summed
// cross-entropy, backward — with a span around each step and the kernel
// time spent inside the pass.
type tracedClear struct {
	attack.Oracle
	m    models.Model
	g    *autograd.Graph
	k    *obs.KernelStats
	grad *tensor.Tensor

	queries                                int
	total, forward, loss, backward, kernel time.Duration
}

func newTracedClear(e *env, k *obs.KernelStats) *tracedClear {
	g := autograd.NewGraphWithPool(tensor.NewPool())
	g.SetTrackParamGrads(false)
	return &tracedClear{Oracle: e.clear, m: e.twin, g: g, k: k}
}

func (o *tracedClear) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	k0 := kernelNS(o.k)
	t0 := time.Now()
	o.g.Release()
	in := o.g.Input(x, "x")
	_, logits := o.m.Forward(o.g, in)
	t1 := time.Now()
	loss, info := o.g.CrossEntropy(logits, y, autograd.ReduceSum)
	t2 := time.Now()
	o.g.Backward(loss)
	t3 := time.Now()
	if o.grad == nil || !o.grad.SameShape(in.Grad) {
		o.grad = in.Grad.Clone()
	} else {
		o.grad.CopyFrom(in.Grad)
	}
	t4 := time.Now()
	o.queries++
	o.total += t4.Sub(t0)
	o.forward += t1.Sub(t0)
	o.loss += t2.Sub(t1)
	o.backward += t3.Sub(t2)
	o.kernel += time.Duration(kernelNS(o.k) - k0)
	return o.grad, info.PerSample, nil
}

func unhook() { tensor.SetKernelHook(nil) }

// kernelNS is the total hooked kernel time so far.
func kernelNS(k *obs.KernelStats) int64 {
	s := k.SnapshotNS()
	return s[0] + s[1] + s[2]
}

// hook installs k as the process's kernel-boundary observer.
func hook(k *obs.KernelStats) {
	tensor.SetKernelHook(&tensor.KernelHook{
		Now:     time.Now,
		Observe: func(op tensor.KernelOp, d time.Duration) { k.Add(int(op), d.Nanoseconds()) },
	})
}

// probeOutput is one perturbation the phase produced.
type probeOutput struct {
	batch    int
	shielded bool
	adv      *tensor.Tensor
}

type probeResult struct {
	elapsed         time.Duration
	shielded, clear *timedOracle
	perturb         time.Duration // total time inside Perturb
	outputs         []probeOutput
	shieldedRobust  float64
	clearRobust     float64

	// Traced run only.
	traced        bool
	ts            *tracedShield
	tc            *tracedClear
	tracedTimed   *timedOracle // both traced oracles, for the overhead
	untracedTimed *timedOracle
	kernels       *obs.KernelStats
	mallocs       uint64
	allocBytes    uint64
}

// runProbe runs crafting cycles until budget is spent. In the traced run
// every other cycle goes through the traced oracles with the kernel hook
// armed; the rest stay untraced so the tracing overhead can be measured.
func runProbe(e *env, budget time.Duration, traced bool) (*probeResult, error) {
	r := &probeResult{
		shielded: &timedOracle{Oracle: e.shield},
		clear:    &timedOracle{Oracle: e.clear},
		traced:   traced,
	}
	var shieldT, clearT *timedOracle
	if traced {
		r.kernels = &obs.KernelStats{}
		ts, err := newTracedShield(e)
		if err != nil {
			return nil, err
		}
		r.ts, r.tc = ts, newTracedClear(e, r.kernels)
		shieldT, clearT = &timedOracle{Oracle: r.ts}, &timedOracle{Oracle: r.tc}
		r.tracedTimed, r.untracedTimed = &timedOracle{}, &timedOracle{}
	}
	start := time.Now()
	for cycle := 0; cycle < 2 || time.Since(start) < budget; cycle++ {
		b := cycle % len(e.batches)
		tracing := traced && cycle%2 == 1
		so, co := r.shielded, r.clear
		var ms0 runtime.MemStats
		if tracing {
			so, co = shieldT, clearT
			runtime.ReadMemStats(&ms0)
			hook(r.kernels)
		}
		if err := r.reseed(e, cycle); err != nil {
			return nil, err
		}
		busy0, calls0 := so.busy+co.busy, so.calls+co.calls
		for _, atk := range cycleAttacks(e.seed, cycle) {
			for _, o := range []*timedOracle{so, co} {
				t0 := time.Now()
				adv, err := atk.Perturb(o, e.batches[b].X, e.batches[b].Y)
				if err != nil {
					return nil, fmt.Errorf("%s against %s: %w", atk.Name(), o.Name(), err)
				}
				r.perturb += time.Since(t0)
				r.outputs = append(r.outputs, probeOutput{batch: b, shielded: o == so, adv: adv})
			}
		}
		if traced {
			acc := r.untracedTimed
			if tracing {
				unhook()
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				r.mallocs += ms1.Mallocs - ms0.Mallocs
				r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				acc = r.tracedTimed
			}
			acc.busy += so.busy + co.busy - busy0
			acc.calls += so.calls + co.calls - calls0
		}
	}
	r.elapsed = time.Since(start)
	if traced {
		// Fold the traced oracles' timings into the per-kind totals.
		r.shielded.calls += shieldT.calls
		r.shielded.busy += shieldT.busy
		r.clear.calls += clearT.calls
		r.clear.busy += clearT.busy
	}
	return r, nil
}

// reseed gives the cycle's attacker a fresh upsampling kernel.
func (r *probeResult) reseed(e *env, cycle int) error {
	if err := e.shield.Reseed(cycleSeed(e.seed, cycle)); err != nil {
		return err
	}
	if r.ts != nil {
		return r.ts.reseed(cycleSeed(e.seed, cycle))
	}
	return nil
}

// checkProbe verifies the phase's outputs: every adversarial batch inside
// the ε-ball and [0,1], the shield's robust-accuracy gap, a repeated
// (oracle, attack, seed, batch) tuple reproducing bit for bit — through the
// traced oracles too in the traced run.
func checkProbe(e *env, r *probeResult) []check {
	var cs []check
	var ball error
	for _, o := range r.outputs {
		if err := checkEpsBall(o.adv, e.batches[o.batch].X, attackEps); err != nil && ball == nil {
			ball = err
		}
	}
	cs = append(cs, check{"probe: adversarial batches inside the ε-ball and [0,1]", ball})

	var hit [2]int
	var n [2]int
	for _, o := range r.outputs {
		k := 0
		if o.shielded {
			k = 1
		}
		pred := models.Predict(e.twin, o.adv)
		for i, p := range pred {
			n[k]++
			if p == e.batches[o.batch].Y[i] {
				hit[k]++
			}
		}
	}
	r.clearRobust = float64(hit[0]) / float64(n[0])
	r.shieldedRobust = float64(hit[1]) / float64(n[1])
	cs = append(cs, check{"probe: shielded robust accuracy above clear", checkShieldGap(r.shieldedRobust, r.clearRobust, shieldGapFloor)})

	// Cycle 0 ran PGD then APGD, each against the shielded oracle first.
	repeat := func(o attack.Oracle, atk, out int) error {
		if err := r.reseed(e, 0); err != nil {
			return err
		}
		adv, err := cycleAttacks(e.seed, 0)[atk].Perturb(o, e.batches[0].X, e.batches[0].Y)
		if err != nil {
			return err
		}
		return checkBitIdentical("repeated perturbation", adv, r.outputs[out].adv)
	}
	cs = append(cs,
		check{"probe: repeated shielded PGD tuple is bit-identical", repeat(e.shield, 0, 0)},
		check{"probe: repeated clear APGD tuple is bit-identical", repeat(e.clear, 1, 3)})
	if r.traced {
		cs = append(cs,
			check{"probe: traced shielded oracle reproduces the untraced one", repeat(r.ts, 0, 0)},
			check{"probe: traced clear oracle reproduces the untraced one", repeat(r.tc, 1, 3)})
	}
	return cs
}

func (r *probeResult) endToEnd(m *metrics, l *ledger) {
	q := r.shielded.calls + r.clear.calls
	m.add("queries_per_s", float64(q)/r.elapsed.Seconds(), "1/s", q)
	m.add("shielded_query_p50_ms", r.shielded.grad.quantile(0.5), "ms", len(r.shielded.grad))
	m.add("clear_query_p50_ms", r.clear.grad.quantile(0.5), "ms", len(r.clear.grad))
	l.note("probe.shielded_query_p99_ms", r.shielded.grad.windowedP99(), "ms")
}

// perLayer reports the traced cycles' ledger. The shielded query splits
// into the clear-twin pass, the shield's own cost, the upsampler and an
// unattributed remainder; the clear pass splits into forward, loss,
// backward and a remainder, and separately into hooked kernel time and the
// autograd remainder.
func (r *probeResult) perLayer(m *metrics, l *ledger) {
	ts, tc := r.ts, r.tc
	q := ts.queries + tc.queries
	per := func(d time.Duration, n int) float64 { return ms(d) / float64(n) }
	k := r.kernels.SnapshotNS()
	m.add("tensor.matmul_ms.probe", float64(k[obs.KernelMatMul])/1e6/float64(q), "ms", q)
	m.add("tensor.conv_ms.probe", float64(k[obs.KernelConv])/1e6/float64(q), "ms", q)
	m.add("tensor.kernel_ms.probe", float64(k[0]+k[1]+k[2])/1e6/float64(q), "ms", q)
	l.note("tensor.attention_ms.probe", float64(k[obs.KernelAttention])/1e6/float64(q), "ms")
	m.add("tensor.allocs_per_op.probe", float64(r.mallocs)/float64(q), "count", q)
	m.add("tensor.alloc_bytes_per_op.probe", float64(r.allocBytes)/float64(q), "B", q)

	clearPass := per(tc.total, tc.queries)
	m.add("models.forward_ms", per(tc.forward, tc.queries), "ms", tc.queries)
	m.add("autograd.backward_ms", per(tc.backward, tc.queries), "ms", tc.queries)
	m.add("autograd.unattributed_ms", clearPass-per(tc.kernel, tc.queries), "ms", tc.queries)
	l.composite("clear query (traced)", clearPass, []part{
		{"models.forward_ms", per(tc.forward, tc.queries)},
		{"autograd.loss_ms", per(tc.loss, tc.queries)},
		{"autograd.backward_ms", per(tc.backward, tc.queries)},
	})
	l.composite("clear query by layer (traced)", clearPass, []part{
		{"tensor.kernel_ms", per(tc.kernel, tc.queries)},
	})

	shieldTotal := per(ts.total, ts.queries)
	shield := per(ts.query, ts.queries) - clearPass
	m.add("core.shield_ms", shield, "ms", ts.queries)
	m.add("tee.switches_per_query", float64(ts.switches)/float64(ts.queries), "count", ts.queries)
	m.add("tee.bytes_in_per_query", float64(ts.bytesIn)/float64(ts.queries), "B", ts.queries)
	m.add("attack.upsample_ms", per(ts.upsample, ts.queries), "ms", ts.queries)
	remainder := l.composite("shielded query (traced)", shieldTotal, []part{
		{"clear_pass_ms", clearPass},
		{"core.shield_ms", shield},
		{"attack.upsample_ms", per(ts.upsample, ts.queries)},
	})
	m.add("probe.shielded_query.unattributed_ms", remainder, "ms", ts.queries)

	// The untraced cycles' shielded latencies: a tail metric without the
	// tracing's own cost.
	m.add("probe.shielded_query_p99_ms", r.shielded.grad.windowedP99(), "ms", len(r.shielded.grad))
	calls := r.shielded.calls + r.clear.calls
	oracle := r.shielded.busy + r.clear.busy
	m.add("attack.self_ms", per(r.perturb-oracle, calls), "ms", calls)
	m.add("probe.trace_overhead_ms",
		per(r.tracedTimed.busy, r.tracedTimed.calls)-per(r.untracedTimed.busy, r.untracedTimed.calls),
		"ms", r.tracedTimed.calls)
}
