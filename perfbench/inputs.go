package main

import (
	"math"
	"math/rand"
	"time"

	"pelta/internal/tensor"
)

// Everything the benchmark feeds the program — images, labels, client
// identities, arrival times — is generated in this file from the --seed
// argument. The program under test only ever receives the results.

const (
	classes  = 6
	channels = 3
	// pixelNoise and brightJitter shape the per-sample variation around a
	// class prototype: enough that two benign samples of one class are far
	// apart for the probe detector, little enough that a small model
	// learns the classes in a few epochs.
	pixelNoise   = 0.06
	brightJitter = 0.08
)

// labelled is a batch of images [N,C,H,W] in [0,1] with their classes.
type labelled struct {
	X *tensor.Tensor
	Y []int
}

// imageGen draws class-conditional images: each class has a prototype made
// of a few random sinusoids per channel; a sample adds Gaussian pixel noise
// and a brightness offset to its class prototype.
type imageGen struct {
	rng    *rand.Rand
	hw     int
	protos [][]float32
}

func newImageGen(seed int64, hw int) *imageGen {
	rng := rand.New(rand.NewSource(seed))
	g := &imageGen{rng: rng, hw: hw, protos: make([][]float32, classes)}
	n := channels * hw * hw
	for c := range g.protos {
		p := make([]float32, n)
		for ch := 0; ch < channels; ch++ {
			for k := 0; k < 3; k++ {
				fx, fy := 0.5+2.5*rng.Float64(), 0.5+2.5*rng.Float64()
				phase, amp := 2*math.Pi*rng.Float64(), 0.4+0.6*rng.Float64()
				for y := 0; y < hw; y++ {
					for x := 0; x < hw; x++ {
						v := amp * math.Sin(2*math.Pi*(fx*float64(x)+fy*float64(y))/float64(hw)+phase)
						p[(ch*hw+y)*hw+x] += float32(v)
					}
				}
			}
		}
		lo, hi := p[0], p[0]
		for _, v := range p {
			lo, hi = min(lo, v), max(hi, v)
		}
		for i, v := range p {
			p[i] = 0.15 + 0.7*(v-lo)/max(hi-lo, 1e-6)
		}
		g.protos[c] = p
	}
	return g
}

// sample writes one image of class c into dst.
func (g *imageGen) sample(dst []float32, c int) {
	bright := brightJitter * (2*g.rng.Float64() - 1)
	for i, v := range g.protos[c] {
		x := float64(v) + pixelNoise*g.rng.NormFloat64() + bright
		dst[i] = float32(min(1, max(0, x)))
	}
}

// set draws n samples with classes cycling through the label space.
func (g *imageGen) set(n int) labelled {
	per := channels * g.hw * g.hw
	x := tensor.New(n, channels, g.hw, g.hw)
	y := make([]int, n)
	for i := range y {
		y[i] = i % classes
		g.sample(x.Data()[i*per:(i+1)*per], y[i])
	}
	return labelled{X: x, Y: y}
}

// Serving traffic: an open loop of fixed-rate phases. Every arrival has a
// due time (offset from its phase's start), a client, and the index of the
// item that client sends next.

const (
	benignClients = 6
	probeClients  = 2
	// probeShare is the fraction of arrivals sent by the probe clients.
	probeShare = 0.1
	// benignPool is how many distinct samples each benign client cycles
	// through: a sample comes back only after far more queries than the
	// probe detector's 64-query window holds.
	benignPool = 512
)

type arrival struct {
	Due    time.Duration
	Client int // < probeClients: a probe client replaying a PGD stream
	Item   int // index into the client's own item sequence
}

// loadPhase is one fixed-rate stretch of the open loop.
type loadPhase struct {
	Name     string
	Rate     float64 // arrivals per second
	Pass     int     // ladder pass, from 1; 0 outside the ladder
	Arrivals []arrival
}

// traffic is the whole serving input: the phases in order plus the pool
// of distinct samples each benign client cycles through.
type traffic struct {
	Phases []loadPhase
	Benign [benignClients][]*tensor.Tensor
}

// phaseSpec names a phase, its rate, its ladder pass and how long it
// lasts.
type phaseSpec struct {
	Name string
	Rate float64
	Pass int
	Dur  time.Duration
}

// newTraffic lays the phases end to end. Arrivals are evenly spaced at each
// phase's rate; the seed picks which client sends each one, and gen draws
// the benign samples. Per-client item counters run across phases, so a
// probe stream keeps advancing and a benign client keeps cycling its pool.
func newTraffic(seed int64, gen *imageGen, specs []phaseSpec) *traffic {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{}
	next := make([]int, benignClients+probeClients)
	rr := 0
	for _, s := range specs {
		n := int(math.Round(s.Rate * s.Dur.Seconds()))
		p := loadPhase{Name: s.Name, Rate: s.Rate, Pass: s.Pass, Arrivals: make([]arrival, n)}
		gap := time.Duration(float64(time.Second) / s.Rate)
		for i := range p.Arrivals {
			c := probeClients + rr%benignClients
			if rng.Float64() < probeShare {
				c = rng.Intn(probeClients)
			} else {
				rr++
			}
			p.Arrivals[i] = arrival{Due: time.Duration(i) * gap, Client: c, Item: next[c]}
			next[c]++
		}
		t.Phases = append(t.Phases, p)
	}
	per := channels * gen.hw * gen.hw
	for b := range t.Benign {
		n := min(next[probeClients+b], benignPool)
		t.Benign[b] = make([]*tensor.Tensor, n)
		for i := range t.Benign[b] {
			x := tensor.New(channels, gen.hw, gen.hw)
			gen.sample(x.Data()[:per], gen.rng.Intn(classes))
			t.Benign[b][i] = x
		}
	}
	return t
}
