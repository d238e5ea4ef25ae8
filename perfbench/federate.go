package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"pelta/internal/dataset"
	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/obs"
)

// The federate phase runs deterministic fl.AsyncServer federations: two
// clear HonestClients, each served over loopback TCP with gob, train in
// barriered rounds and the global model's validation accuracy is scored
// after every round. The phase repeats one federation until its budget is
// spent. Nothing here touches core, tee, attack, serve or detect.
//
// The federation's data and initial weights come from flSeed, not from
// --seed: how many rounds a small model needs to reach an accuracy target
// is a property of the learning problem that swings between seeds, and a
// fixed problem makes time_to_acc_s measure speed alone. rounds_to_acc is
// then an exact, repeatable count.

const (
	flClients = 2
	flRounds  = 4
	// flTarget is the validation accuracy time-to-accuracy waits for;
	// flFloor is the final accuracy every federation must reach.
	flTarget = 0.97
	flFloor  = 0.9
	flSeed   = 1
)

type roundRec struct {
	wall   time.Duration // from the end of the previous scoring to this one's start
	acc    float64
	timing obs.RoundSpan
	bytes  int
	traced bool
}

type federation struct {
	rounds    []roundRec
	toAcc     time.Duration
	roundsAcc int
	reached   bool
	weights   fl.Weights
}

type fedResult struct {
	feds       []*federation
	kernels    *obs.KernelStats
	mallocs    uint64
	allocBytes uint64
	updates    int
}

// flClient is one HonestClient behind a loopback listener.
type flClient struct {
	lis  net.Listener
	done chan error
	conn fl.Conn
}

// flData is the federation's input: both clients' shards and the
// validation set.
type flData struct {
	shards [flClients]labelled
	val    labelled
}

func newFLData(hw int) flData {
	gen := newImageGen(flSeed, hw)
	var d flData
	for i := range d.shards {
		d.shards[i] = gen.set(trainN / flClients)
	}
	d.val = gen.set(valN)
	return d
}

func startClients(fam family, d flData) ([]*flClient, error) {
	var cs []*flClient
	for i, sh := range d.shards {
		name := fmt.Sprintf("client-%d", i)
		shard := &dataset.Dataset{Name: name, Classes: classes, HW: fam.hw, X: sh.X, Y: sh.Y}
		hc := fl.NewHonestClient(name, fam.build(flSeed+100+int64(i)), shard,
			models.TrainConfig{Epochs: fam.flEpochs, BatchSize: 32, LR: 2e-3, Seed: flSeed})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return cs, err
		}
		c := &flClient{lis: lis, done: make(chan error, 1)}
		cs = append(cs, c)
		go func() { c.done <- fl.ServeClient(lis, hc) }()
		if c.conn, err = fl.Dial(lis.Addr().String(), name); err != nil {
			return cs, err
		}
	}
	return cs, nil
}

// stopClients closes every connection and listener and waits for the
// serving goroutines to return.
func stopClients(cs []*flClient) error {
	var errs []error
	for _, c := range cs {
		if c.conn != nil {
			c.conn.Close()
		}
		c.lis.Close()
		if err := <-c.done; !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func connsOf(cs []*flClient) []fl.Conn {
	conns := make([]fl.Conn, len(cs))
	for i, c := range cs {
		conns[i] = c.conn
	}
	return conns
}

// runFederate runs federations until budget is spent. In the traced run
// every other federation arms the kernel hook; the rest measure the
// untraced round time for the overhead.
func runFederate(e *env, budget time.Duration, traced bool) (r *fedResult, err error) {
	d := newFLData(e.fam.hw)
	cs, err := startClients(e.fam, d)
	defer func() {
		if stopErr := stopClients(cs); err == nil && stopErr != nil {
			err = fmt.Errorf("stopping FL clients: %w", stopErr)
		}
	}()
	if err != nil {
		return nil, fmt.Errorf("starting FL clients: %w", err)
	}
	conns := connsOf(cs)
	r = &fedResult{}
	if traced {
		r.kernels = &obs.KernelStats{}
	}
	start := time.Now()
	for k := 0; k < 2 || time.Since(start) < budget; k++ {
		tracing := traced && k%2 == 1
		var ms0 runtime.MemStats
		if tracing {
			runtime.ReadMemStats(&ms0)
			hook(r.kernels)
		}
		f, err := federate(e.fam, d, conns, k, tracing)
		if tracing {
			unhook()
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			r.mallocs += ms1.Mallocs - ms0.Mallocs
			r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		if err != nil {
			return nil, err
		}
		r.feds = append(r.feds, f)
		r.updates += flClients * len(f.rounds)
	}
	return r, nil
}

// federate runs one federation of flRounds rounds from the fixed initial
// global model.
func federate(fam family, d flData, conns []fl.Conn, k int, traced bool) (*federation, error) {
	f := &federation{}
	var last time.Time
	srv := &fl.AsyncServer{
		Global: fam.build(flSeed),
		Conns:  conns,
		Config: fl.AsyncConfig{Rounds: flRounds, Workers: flClients, Deterministic: true},
		Eval: func(m models.Model) float64 {
			t := time.Now()
			acc := models.Accuracy(m, d.val.X, d.val.Y)
			f.rounds = append(f.rounds, roundRec{wall: t.Sub(last), acc: acc, traced: traced})
			last = time.Now()
			return acc
		},
	}
	last = time.Now()
	res, err := srv.Run()
	if err != nil {
		return nil, fmt.Errorf("federation %d: %w", k, err)
	}
	if len(res) != len(f.rounds) {
		return nil, fmt.Errorf("federation %d: %d results for %d scored rounds", k, len(res), len(f.rounds))
	}
	for i := range res {
		f.rounds[i].timing = res[i].Timing
		f.rounds[i].bytes = res[i].DownBytes + res[i].UpBytes
	}
	for i, rd := range f.rounds {
		f.toAcc += rd.wall
		if rd.acc >= flTarget {
			f.reached, f.roundsAcc = true, i+1
			break
		}
	}
	f.weights = fl.Snapshot(srv.Global)
	return f, nil
}

func checkFederate(r *fedResult) []check {
	var finite, floor, reach error
	for k, f := range r.feds {
		if err := checkFinite(f.weights); err != nil && finite == nil {
			finite = fmt.Errorf("federation %d: %w", k, err)
		}
		final := f.rounds[len(f.rounds)-1].acc
		if err := checkAtLeast(fmt.Sprintf("federation %d final accuracy", k), final, flFloor); err != nil && floor == nil {
			floor = err
		}
		if !f.reached && reach == nil {
			reach = fmt.Errorf("federation %d never reached accuracy %.2f", k, flTarget)
		}
	}
	return []check{
		{"federate: global weights finite", finite},
		{"federate: final accuracy at or above the floor", floor},
		{"federate: every federation reaches the target accuracy", reach},
	}
}

func (r *fedResult) rounds(traced bool) dist {
	var d dist
	for _, f := range r.feds {
		for _, rd := range f.rounds {
			if rd.traced == traced {
				d.add(rd.wall)
			}
		}
	}
	return d
}

func (r *fedResult) endToEnd(m *metrics) {
	rounds := r.rounds(false)
	m.add("round_p50_s", rounds.quantile(0.5)/1e3, "s", len(rounds))
	var toAcc dist
	for _, f := range r.feds {
		toAcc.add(f.toAcc)
	}
	m.add("time_to_acc_s", toAcc.quantile(0.5)/1e3, "s", len(toAcc))
}

// perLayer reports the traced federations' ledger: a round's wall time
// splits into client training and transport (per client: the two clients
// run side by side), aggregation, broadcast and an unattributed remainder.
func (r *fedResult) perLayer(m *metrics, l *ledger) {
	var train, transport, aggregate, broadcast, bytes dist
	var wall dist
	var toAcc []float64
	for _, f := range r.feds {
		toAcc = append(toAcc, float64(f.roundsAcc))
		for _, rd := range f.rounds {
			if !rd.traced {
				continue
			}
			c := time.Duration(max(rd.timing.Clients, 1))
			train.add(time.Duration(rd.timing.TrainNS) / c)
			transport.add(time.Duration(rd.timing.TransportNS) / c)
			aggregate.add(time.Duration(rd.timing.AggregateNS))
			broadcast.add(time.Duration(rd.timing.BroadcastNS))
			bytes = append(bytes, float64(rd.bytes))
			wall.add(rd.wall)
		}
	}
	n := len(wall)
	k := r.kernels.SnapshotNS()
	m.add("tensor.matmul_ms.federate", float64(k[obs.KernelMatMul])/1e6/float64(n), "ms", n)
	m.add("tensor.kernel_ms.federate", float64(k[0]+k[1]+k[2])/1e6/float64(n), "ms", n)
	l.note("tensor.conv_ms.federate", float64(k[obs.KernelConv])/1e6/float64(n), "ms")
	l.note("tensor.attention_ms.federate", float64(k[obs.KernelAttention])/1e6/float64(n), "ms")
	m.add("tensor.allocs_per_op.federate", float64(r.mallocs)/float64(n), "count", n)
	m.add("tensor.alloc_bytes_per_op.federate", float64(r.allocBytes)/float64(n), "B", n)
	m.add("fl.train_ms", train.mean(), "ms", n)
	m.add("fl.transport_ms", transport.mean(), "ms", n)
	m.add("fl.aggregate_ms", aggregate.mean(), "ms", n)
	m.add("fl.broadcast_ms", broadcast.mean(), "ms", n)
	m.add("fl.wire_bytes_per_round", bytes.mean(), "B", n)
	m.add("fl.rounds_to_acc", medianOf(toAcc), "count", len(toAcc))
	remainder := l.composite("FL round (traced)", wall.mean(), []part{
		{"fl.train_ms", train.mean()},
		{"fl.transport_ms", transport.mean()},
		{"fl.aggregate_ms", aggregate.mean()},
		{"fl.broadcast_ms", broadcast.mean()},
	})
	m.add("fl.round.unattributed_ms", remainder, "ms", n)
	untraced := r.rounds(false)
	m.add("fl.trace_overhead_ms", wall.mean()-untraced.mean(), "ms", n)
}
