package main

import (
	"fmt"
	"runtime"
	"time"

	"pelta/internal/attack"
	"pelta/internal/core"
	"pelta/internal/fl"
	"pelta/internal/models"
	"pelta/internal/serve"
	"pelta/internal/tensor"
)

// family is one workload: the defender architecture every phase runs.
type family struct {
	name string
	hw   int // input height and width
	// build returns a freshly initialized model.
	build func(seed int64) models.Model
	// epochs of defender training in set-up.
	epochs int
	// flEpochs of local training per FL round.
	flEpochs int
	// heavyRate, in requests per second, is about half the family's
	// goodput on the 2-core reference host: both replicas stay busy,
	// yet a slow stretch of a shared host does not push it past the knee,
	// where latency stops being steady.
	heavyRate float64
}

// The ViT crosses the shield boundary many times per pass with small
// tensors; the BiT crosses it a few times with large feature maps.
var families = map[string]family{
	"vit": {
		name: "vit",
		hw:   16,
		build: func(seed int64) models.Model {
			cfg := models.ViTConfig{Name: "ViT", InputC: channels, InputHW: 16, Patch: 4,
				Dim: 32, Depth: 2, Heads: 2, MLPDim: 64, Classes: classes}
			return models.NewViT(cfg, tensor.NewRNG(seed))
		},
		epochs:    4,
		flEpochs:  2,
		heavyRate: 2500,
	},
	"bit": {
		name: "bit",
		hw:   8,
		build: func(seed int64) models.Model {
			return models.NewBiT(models.SmallBiT("BiT", classes, 8), tensor.NewRNG(seed))
		},
		epochs:    3,
		flEpochs:  1,
		heavyRate: 2000,
	},
}

const (
	trainN    = 600
	valN      = 200
	batchSize = 8
	// probeBatches bounds how many distinct correctly classified batches
	// the crafting loop cycles through.
	probeBatches = 8
	// streamLen is the length of each recorded PGD probe stream a serving
	// probe client replays.
	streamLen = 48
	// replicas is the serving pool size (one per core of a 2-core host).
	replicas = 2
	// enclaveLimit is each shielded model's secure-memory ceiling; 0
	// selects the TrustZone default.
	enclaveLimit = 0
)

// env is everything set-up produces; the phases only read it (and drive
// the oracles and models in it).
type env struct {
	fam   family
	seed  int64
	gen   *imageGen
	train labelled
	val   labelled

	model  models.Model // the trained defender
	sm     *core.ShieldedModel
	shield *attack.ShieldedOracle
	clear  *attack.ClearOracle // the clear twin: same weights, no shield
	twin   models.Model

	batches []labelled // correctly classified probe batches
	streams [probeClients][]*tensor.Tensor

	traffic *traffic
	pool    *serve.ReplicaPool
}

// setup generates the inputs, trains the defender, builds the shielded
// model, its oracle and its clear twin, records the probe streams and
// builds the serving replicas.
func setup(fam family, seed int64, load []phaseSpec) (*env, error) {
	e := &env{fam: fam, seed: seed, gen: newImageGen(seed, fam.hw)}
	e.train = e.gen.set(trainN)
	e.val = e.gen.set(valN)
	e.traffic = newTraffic(seed, e.gen, load)

	e.model = fam.build(seed)
	if _, err := models.Train(e.model, e.train.X, e.train.Y,
		models.TrainConfig{Epochs: fam.epochs, BatchSize: 32, LR: 2e-3, Seed: seed}); err != nil {
		return nil, fmt.Errorf("training defender: %w", err)
	}
	var err error
	if e.twin, err = clone(fam, e.model); err != nil {
		return nil, err
	}
	if e.sm, err = core.NewShieldedModel(e.model, enclaveLimit); err != nil {
		return nil, err
	}
	if e.shield, err = attack.NewShieldedOracle(e.sm, seed); err != nil {
		return nil, err
	}
	e.clear = attack.NewClearOracle(e.twin)
	if e.batches, err = correctBatches(e.twin, e.val); err != nil {
		return nil, err
	}
	if err := e.recordStreams(); err != nil {
		return nil, err
	}
	e.pool, err = serve.NewReplicaPool(replicas, func(int) (serve.Replica, error) {
		m, err := clone(fam, e.model)
		if err != nil {
			return nil, err
		}
		sm, err := core.NewShieldedModel(m, enclaveLimit)
		if err != nil {
			return nil, err
		}
		return &serve.ShieldedReplica{SM: sm}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("building serving replicas: %w", err)
	}
	return e, nil
}

// clone builds a second instance of m's architecture with m's weights.
func clone(fam family, m models.Model) (models.Model, error) {
	c := fam.build(0)
	if err := fl.Apply(c, fl.Snapshot(m)); err != nil {
		return nil, fmt.Errorf("cloning %s: %w", m.Name(), err)
	}
	return c, nil
}

// correctBatches groups validation samples the defender classifies
// correctly into batches of batchSize.
func correctBatches(m models.Model, val labelled) ([]labelled, error) {
	pred := models.Predict(m, val.X)
	var idx []int
	for i, p := range pred {
		if p == val.Y[i] {
			idx = append(idx, i)
		}
	}
	n := min(len(idx)/batchSize, probeBatches)
	if n < 2 {
		return nil, fmt.Errorf("defender classifies only %d of %d validation samples correctly", len(idx), len(pred))
	}
	out := make([]labelled, n)
	for b := range out {
		x, y, err := models.Batch(val.X, val.Y, idx[b*batchSize:(b+1)*batchSize])
		if err != nil {
			return nil, err
		}
		out[b] = labelled{X: x, Y: y}
	}
	return out, nil
}

// recorder is an oracle wrapper that keeps every gradient-query input.
type recorder struct {
	attack.Oracle
	xs []*tensor.Tensor
}

func (r *recorder) GradCE(x *tensor.Tensor, y []int) (*tensor.Tensor, []float64, error) {
	r.xs = append(r.xs, x.Clone())
	return r.Oracle.GradCE(x, y)
}

// recordStreams runs one long PGD attack per probe client on a single
// correctly classified sample and keeps the sequence of queried iterates:
// the stream a compromised node sends while it crafts.
func (e *env) recordStreams() error {
	for p := range e.streams {
		b := e.batches[p%len(e.batches)]
		x, y, err := models.Batch(b.X, b.Y, []int{p})
		if err != nil {
			return err
		}
		rec := &recorder{Oracle: e.shield}
		pgd := &attack.PGD{Eps: attackEps, Step: attackStep, Steps: streamLen}
		if _, err := pgd.Perturb(rec, x, y); err != nil {
			return fmt.Errorf("recording probe stream %d: %w", p, err)
		}
		for _, q := range rec.xs {
			e.streams[p] = append(e.streams[p], q.Slice(0).Clone())
		}
	}
	return nil
}

// timeSetups runs set-up n times, returns the last environment and each
// set-up's duration. Every repetition must train to bit-identical weights.
// Only the weights of an earlier environment are kept, and it is collected
// before the next set-up, so peak memory covers one environment.
func timeSetups(fam family, seed int64, serveBudget time.Duration, traced bool, n int) (*env, []float64, error) {
	var e *env
	var first fl.Weights
	var secs []float64
	for i := 0; i < n; i++ {
		e = nil
		runtime.GC()
		t0 := time.Now()
		next, err := setup(fam, seed, loadPlan(fam, serveBudget, traced))
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		w := fl.Snapshot(next.model)
		if i == 0 {
			first = w
		} else if err := sameWeights(first, w); err != nil {
			return nil, nil, fmt.Errorf("set-up is not deterministic: %w", err)
		}
		e = next
	}
	return e, secs, nil
}
