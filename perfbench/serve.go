package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"pelta/internal/core"
	"pelta/internal/obs"
	"pelta/internal/serve"
	"pelta/internal/tensor"
)

// The serve phase is open-loop shielded inference through
// Service.SubmitFrom from benign clients plus probe clients replaying the
// recorded PGD streams, with the probe detector in log mode so what gets
// served does not change. Two fixed-rate phases, light and heavy, are
// followed by passes of a rate ladder, each stopping at the first rate
// whose p99 misses the limit.

const (
	// lightRate, in requests per second, is far below either family's
	// capacity; each family sets its own heavy rate.
	lightRate = 100
	// latencyLimit is the p99 target the ladder rates are held to. It
	// sits well above the few-millisecond stalls a shared 2-core host
	// shows at any load, so the ladder stops where the queue starts to
	// grow, not at the first stall.
	latencyLimit = 50 * time.Millisecond
	// The ladder climbs from the family's heavy rate by ladderStep per
	// rung, for at most ladderRungs rungs, and runs ladderPasses times;
	// goodput is the median of the passes' estimates.
	ladderStep   = 1.25
	ladderRungs  = 6
	ladderPasses = 3
	// verifyRows is how many served rows are re-derived with a direct
	// single-sample ShieldedModel.Query.
	verifyRows = 256
	maxBatch   = 8

	untracedSuffix = "-untraced"
)

// loadPlan splits the serving budget: 10% light, 40% heavy, and 5% for
// each ladder rung (a pass stops at the first rung that misses the limit,
// usually the fifth). The traced run halves light and heavy and
// runs them untraced first, so the tracing overhead is measured on the
// same load.
func loadPlan(fam family, budget time.Duration, traced bool) []phaseSpec {
	fixed := []phaseSpec{
		{Name: "light", Rate: lightRate, Dur: budget / 10},
		{Name: "heavy", Rate: fam.heavyRate, Dur: budget * 2 / 5},
	}
	var specs []phaseSpec
	if traced {
		for i := range fixed {
			fixed[i].Dur /= 2
		}
		for _, f := range fixed {
			specs = append(specs, phaseSpec{Name: f.Name + untracedSuffix, Rate: f.Rate, Dur: f.Dur})
		}
	}
	specs = append(specs, fixed...)
	for pass := 1; pass <= ladderPasses; pass++ {
		for i, r := range ladderRates(fam) {
			specs = append(specs, phaseSpec{Name: fmt.Sprintf("ladder-%d-%d", pass, i), Rate: r, Pass: pass, Dur: budget / 20})
		}
	}
	return specs
}

// ladderRates are the rates of one ladder pass.
func ladderRates(fam family) []float64 {
	rs := make([]float64, ladderRungs)
	r := fam.heavyRate
	for i := range rs {
		rs[i] = r
		r *= ladderStep
	}
	return rs
}

// served is one request's fate.
type served struct {
	client int
	x      *tensor.Tensor
	lat    time.Duration // from due time to answer
	late   time.Duration // how late the generator sent it
	res    *serve.Result
	err    error
}

func (s *served) ok() bool { return s.err == nil }

type phaseRun struct {
	name     string
	rate     float64
	reqs     []served
	traced   bool
	untraced bool // the traced run's untraced baseline copy
}

// latencies are the served requests' latencies in arrival order.
func (p *phaseRun) latencies() dist {
	var d dist
	for i := range p.reqs {
		if p.reqs[i].ok() {
			d.add(p.reqs[i].lat)
		}
	}
	return d
}

// p99 is the phase's windowed 99th-percentile latency in milliseconds,
// with every failed or shed request counted as infinitely late.
func (p *phaseRun) p99() float64 {
	var d dist
	for i := range p.reqs {
		if p.reqs[i].ok() {
			d.add(p.reqs[i].lat)
		} else {
			d = append(d, math.Inf(1))
		}
	}
	return d.windowedP99()
}

type serveResult struct {
	phases    []*phaseRun
	goodputs  []float64 // one estimate per ladder pass
	saturated bool      // some pass met the limit at every rate

	// Traced run only.
	spans      []obs.SpanRecord
	kernels    [3]int64
	mallocs    uint64
	allocBytes uint64
}

func (e *env) item(a arrival) *tensor.Tensor {
	if a.Client < probeClients {
		s := e.streams[a.Client]
		return s[a.Item%len(s)]
	}
	pool := e.traffic.Benign[a.Client-probeClients]
	return pool[a.Item%len(pool)]
}

// drive plays one phase's arrivals open-loop: each request goes out at its
// due time whether or not earlier ones have been answered, and its latency
// runs from the due time.
func drive(svc *serve.Service, e *env, ph loadPhase) []served {
	out := make([]served, len(ph.Arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range ph.Arrivals {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		x := e.item(a)
		wg.Add(1)
		go func() {
			defer wg.Done()
			late := time.Since(due)
			res, err := svc.SubmitFrom(ph.Name, clientName(a.Client), x, time.Time{})
			out[i] = served{client: a.Client, x: x, lat: time.Since(due), late: late, res: res, err: err}
		}()
	}
	wg.Wait()
	return out
}

func newService(e *env, traced bool) *serve.Service {
	cfg := serve.Config{
		MaxBatch: maxBatch,
		MaxDelay: 2 * time.Millisecond,
		// Deep enough that no phase sheds: an overloaded ladder rung
		// shows as latency, and the ladder stops there.
		QueueDepth: 4096,
		Detect:     &serve.DetectConfig{Action: serve.DetectLog},
	}
	if traced {
		// The ring holds every traced arrival, so none is overwritten.
		n := 0
		for _, ph := range e.traffic.Phases {
			if !strings.HasSuffix(ph.Name, untracedSuffix) {
				n += len(ph.Arrivals)
			}
		}
		cfg.Trace = &serve.TraceConfig{Sample: 1, Cap: n}
	}
	return serve.NewService(e.pool, cfg)
}

// runServe plays the load plan. The traced run serves its untraced copies
// of light and heavy from an untraced service first.
func runServe(e *env, traced bool) *serveResult {
	r := &serveResult{}
	var svc *serve.Service
	var ms0 runtime.MemStats
	tracing := false
	// The light phase is every pass's implicit lowest rung.
	var lightP99, prevRate, prevP99 float64
	rates := ladderRates(e.fam)
	done := 0 // the last ladder pass that has found its crossing
	for _, ph := range e.traffic.Phases {
		if ph.Pass != 0 && ph.Pass == done {
			continue
		}
		untracedCopy := strings.HasSuffix(ph.Name, untracedSuffix)
		if svc == nil || (traced && !untracedCopy && !tracing) {
			if svc != nil {
				svc.Close()
			}
			tracing = traced && !untracedCopy
			svc = newService(e, tracing)
			if tracing {
				runtime.ReadMemStats(&ms0)
			}
		}
		p := &phaseRun{name: ph.Name, rate: ph.Rate, reqs: drive(svc, e, ph), traced: tracing, untraced: untracedCopy}
		r.phases = append(r.phases, p)
		if ph.Name == "light" {
			lightP99 = p.p99()
		}
		if ph.Pass == 0 {
			continue
		}
		if ph.Rate == rates[0] {
			prevRate, prevP99 = lightRate, lightP99
		}
		p99, limit := p.p99(), ms(latencyLimit)
		switch {
		case p99 > limit:
			r.goodputs = append(r.goodputs, crossing(prevRate, prevP99, ph.Rate, p99, limit))
			done = ph.Pass
		case ph.Rate == rates[ladderRungs-1]:
			r.goodputs = append(r.goodputs, ph.Rate)
			r.saturated = true
		default:
			prevRate, prevP99 = ph.Rate, p99
		}
	}
	if tracing {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.mallocs, r.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		r.kernels = svc.KernelStats().SnapshotNS()
		r.spans = svc.Tracer().Records()
	}
	svc.Close()
	return r
}

// crossing estimates the rate at which p99 latency reaches limit, by
// interpolating log p99 linearly in rate between a passing rung (r0, p0)
// and the failing rung above it.
func crossing(r0, p0, r1, p1, limit float64) float64 {
	if math.IsInf(p1, 1) {
		return r0
	}
	return r0 + (r1-r0)*(math.Log(limit)-math.Log(p0))/(math.Log(p1)-math.Log(p0))
}

func (r *serveResult) phase(name string) *phaseRun {
	for _, p := range r.phases {
		if p.name == name {
			return p
		}
	}
	return nil
}

// checkServe verifies that served rows are bit-identical to a direct
// single-sample ShieldedModel.Query on a separate copy of the defender,
// that the detector flagged every probe client and no benign one, and that
// nothing failed or was shed.
func checkServe(e *env, r *serveResult) ([]check, error) {
	m, err := clone(e.fam, e.model)
	if err != nil {
		return nil, err
	}
	sm, err := core.NewShieldedModel(m, enclaveLimit)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range r.phases {
		total += len(p.reqs)
	}
	stride := max(1, total/verifyRows)
	var rowsErr, failErr error
	flagged := make([]int, probeClients+benignClients)
	i := 0
	for _, p := range r.phases {
		for j := range p.reqs {
			s := &p.reqs[j]
			if !s.ok() {
				if failErr == nil {
					failErr = fmt.Errorf("%s request %d: %w", p.name, j, s.err)
				}
				continue
			}
			if s.res.Flagged {
				flagged[s.client]++
			}
			if i%stride == 0 && rowsErr == nil {
				direct, err := sm.Query(s.x.Reshape(append([]int{1}, s.x.Shape()...)...), nil)
				if err != nil {
					return nil, err
				}
				rowsErr = checkBitIdentical(fmt.Sprintf("%s request %d logits", p.name, j),
					s.res.Logits, direct.Logits.Reshape(s.res.Logits.Shape()...))
			}
			i++
		}
	}
	return []check{
		{"serve: served rows bit-identical to a direct ShieldedModel.Query", rowsErr},
		{"serve: detector flags every probe client and no benign client", checkDetection(flagged)},
		{"serve: no request failed or was shed", failErr},
	}, nil
}

func (r *serveResult) counts() (attempted, failed int) {
	for _, p := range r.phases {
		for i := range p.reqs {
			attempted++
			if !p.reqs[i].ok() {
				failed++
			}
		}
	}
	return attempted, failed
}

func (r *serveResult) endToEnd(m *metrics, l *ledger) {
	light, heavy := r.phase("light").latencies(), r.phase("heavy").latencies()
	m.add("light_p50_ms", light.quantile(0.5), "ms", len(light))
	m.add("heavy_p50_ms", heavy.quantile(0.5), "ms", len(heavy))
	l.note("serve.heavy_p99_ms", heavy.windowedP99(), "ms")
	l.note("serve.goodput_rps", medianOf(r.goodputs), "1/s")
}

// perLayer reports the traced phases' ledger: a served request's latency
// from its due time splits into generator lateness, the five span stages
// the service records, and an unattributed remainder (answer delivery and
// goroutine wake-ups).
func (r *serveResult) perLayer(m *metrics, l *ledger) {
	var lat, late, batch dist
	var baseline, tracedFixed dist
	for _, p := range r.phases {
		for i := range p.reqs {
			s := &p.reqs[i]
			if !s.ok() {
				continue
			}
			switch {
			case p.untraced:
				baseline.add(s.lat)
			case p.traced:
				lat.add(s.lat)
				late.add(s.late)
				batch = append(batch, float64(s.res.BatchSize))
				if p.name == "light" || p.name == "heavy" {
					tracedFixed.add(s.lat)
				}
			}
		}
	}
	n := len(lat)
	var stages [5]float64
	spans := 0
	queue := map[string]*dist{"light": {}, "heavy": {}}
	shed := 0
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.Outcome != obs.OutcomeServed {
			shed++
			continue
		}
		spans++
		st := sp.Stages()
		for k := range stages {
			stages[k] += float64(st[k]) / 1e6
		}
		if q, ok := queue[sp.Route]; ok {
			q.add(time.Duration(st[2]))
		}
	}
	for k := range stages {
		stages[k] /= float64(spans)
	}
	m.add("tensor.matmul_ms.serve", float64(r.kernels[obs.KernelMatMul])/1e6/float64(n), "ms", n)
	m.add("tensor.kernel_ms.serve", float64(r.kernels[0]+r.kernels[1]+r.kernels[2])/1e6/float64(n), "ms", n)
	l.note("tensor.conv_ms.serve", float64(r.kernels[obs.KernelConv])/1e6/float64(n), "ms")
	l.note("tensor.attention_ms.serve", float64(r.kernels[obs.KernelAttention])/1e6/float64(n), "ms")
	m.add("tensor.allocs_per_op.serve", float64(r.mallocs)/float64(n), "count", n)
	m.add("tensor.alloc_bytes_per_op.serve", float64(r.allocBytes)/float64(n), "B", n)
	m.add("serve.detect_us", stages[0]*1e3, "us", n)
	for _, ph := range []string{"light", "heavy"} {
		q := *queue[ph]
		m.add("serve.queue_ms.p50."+ph, q.quantile(0.5), "ms", len(q))
		m.add("serve.queue_ms.p95."+ph, q.quantile(0.95), "ms", len(q))
	}
	m.add("serve.infer_ms", stages[4], "ms", n)
	heavy := r.phase("heavy" + untracedSuffix).latencies()
	m.add("serve.heavy_p99_ms", heavy.windowedP99(), "ms", len(heavy))
	m.add("serve.goodput_rps", medianOf(r.goodputs), "1/s", len(r.goodputs))
	m.add("serve.batch_mean", batch.mean(), "count", n)
	m.add("serve.gen_late_ms", late.mean(), "ms", n)
	_, failed := r.counts()
	m.add("serve.shed", float64(failed+shed), "count", n)
	remainder := l.composite("served request (traced, from due time)", lat.mean(), []part{
		{"serve.gen_late_ms", late.mean()},
		{"serve.detect_ms", stages[0]},
		{"serve.admission_ms", stages[1]},
		{"serve.queue_ms", stages[2]},
		{"serve.batch_ms", stages[3]},
		{"serve.infer_ms", stages[4]},
	})
	m.add("serve.request.unattributed_ms", remainder, "ms", n)
	m.add("serve.trace_overhead_ms", tracedFixed.mean()-baseline.mean(), "ms", len(tracedFixed))
}
