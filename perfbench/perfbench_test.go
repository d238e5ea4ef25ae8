package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pelta/internal/fl"
	"pelta/internal/tensor"
)

// Negative controls: every output check must reject a deliberately
// corrupted output and accept the intact one.

func TestEpsBallCheck(t *testing.T) {
	x0 := tensor.FromSlice([]float32{0.2, 0.5, 0.9}, 1, 3)
	ok := tensor.FromSlice([]float32{0.25, 0.45, 0.95}, 1, 3)
	if err := checkEpsBall(ok, x0, 0.1); err != nil {
		t.Fatalf("intact batch rejected: %v", err)
	}
	for name, bad := range map[string][]float32{
		"outside ε":     {0.2, 0.7, 0.9},
		"above 1":       {0.2, 0.5, 1.01},
		"NaN pixel":     {0.2, float32(math.NaN()), 0.9},
		"shape changed": {0.2, 0.5},
	} {
		if checkEpsBall(tensor.FromSlice(bad, 1, len(bad)), x0, 0.1) == nil {
			t.Errorf("%s: corrupted batch accepted", name)
		}
	}
}

func TestBitIdenticalCheck(t *testing.T) {
	want := tensor.FromSlice([]float32{1.5, -0.25, 3}, 3)
	if err := checkBitIdentical("logits", want.Clone(), want); err != nil {
		t.Fatalf("identical logits rejected: %v", err)
	}
	got := want.Clone()
	got.Data()[1] = math.Float32frombits(math.Float32bits(got.Data()[1]) ^ 1)
	if checkBitIdentical("logits", got, want) == nil {
		t.Error("logit with one flipped bit accepted")
	}
}

func TestShieldGapCheck(t *testing.T) {
	if err := checkShieldGap(0.9, 0.05, shieldGapFloor); err != nil {
		t.Fatalf("working shield rejected: %v", err)
	}
	if checkShieldGap(0.1, 0.05, shieldGapFloor) == nil {
		t.Error("broken shield accepted")
	}
}

func TestDetectionCheck(t *testing.T) {
	good := make([]int, probeClients+benignClients)
	for c := 0; c < probeClients; c++ {
		good[c] = 5
	}
	if err := checkDetection(good); err != nil {
		t.Fatalf("correct verdicts rejected: %v", err)
	}
	benignFlagged := append([]int(nil), good...)
	benignFlagged[probeClients] = 1
	probeMissed := append([]int(nil), good...)
	probeMissed[0] = 0
	for name, bad := range map[string][]int{"benign flagged": benignFlagged, "probe missed": probeMissed} {
		if checkDetection(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFiniteCheck(t *testing.T) {
	w := fl.Weights{Names: []string{"w"}, Shapes: [][]int{{2}}, Data: [][]float32{{1, 2}}}
	if err := checkFinite(w); err != nil {
		t.Fatalf("finite weights rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		w.Data[0][1] = float32(v)
		if checkFinite(w) == nil {
			t.Errorf("weight %v accepted", v)
		}
	}
}

func TestFloorCheck(t *testing.T) {
	if checkAtLeast("accuracy", 0.95, 0.9) != nil || checkAtLeast("accuracy", 0.5, 0.9) == nil {
		t.Error("floor check does not separate 0.95 from 0.5 at 0.9")
	}
}

// The same seed must give the same inputs and schedule; another seed must
// not.
func TestInputsFollowSeed(t *testing.T) {
	fam := families["bit"]
	specs := loadPlan(fam, 4*time.Second, false)
	a, b, c := newImageGen(7, fam.hw), newImageGen(7, fam.hw), newImageGen(8, fam.hw)
	sa, sb, sc := a.set(40), b.set(40), c.set(40)
	if err := checkBitIdentical("images", sa.X, sb.X); err != nil || !reflect.DeepEqual(sa.Y, sb.Y) {
		t.Fatalf("same seed, different images: %v", err)
	}
	if checkBitIdentical("images", sa.X, sc.X) == nil {
		t.Error("different seeds gave identical images")
	}
	ta, tb, tc := newTraffic(7, a, specs), newTraffic(7, b, specs), newTraffic(8, c, specs)
	if !reflect.DeepEqual(ta.Phases, tb.Phases) {
		t.Fatal("same seed, different schedules")
	}
	for cl := range ta.Benign {
		for i := range ta.Benign[cl] {
			if err := checkBitIdentical("benign sample", ta.Benign[cl][i], tb.Benign[cl][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if reflect.DeepEqual(ta.Phases, tc.Phases) {
		t.Error("different seeds gave identical schedules")
	}
	for _, p := range ta.Phases {
		want := int(math.Round(p.Rate * specs[0].Dur.Seconds()))
		if p.Name == "light" && len(p.Arrivals) != want {
			t.Errorf("light phase has %d arrivals, want %d", len(p.Arrivals), want)
		}
	}
}

func TestCrossing(t *testing.T) {
	// log p99 doubles per 100 req/s from 10 ms at 400 req/s: 20 ms at 500.
	if got := crossing(400, 10, 500, 40, 20); math.Abs(got-450) > 1e-9 {
		t.Errorf("crossing = %v, want 450", got)
	}
	if got := crossing(400, 10, 500, math.Inf(1), 20); got != 400 {
		t.Errorf("crossing with a shedding rung = %v, want 400", got)
	}
}

func TestQuantile(t *testing.T) {
	d := dist{4, 1, 3, 2, 5}
	if d.quantile(0.5) != 3 || d.quantile(0) != 1 || d.quantile(1) != 5 || d.quantile(0.25) != 2 {
		t.Errorf("quantiles of 1..5 wrong: %v %v %v", d.quantile(0), d.quantile(0.5), d.quantile(1))
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"--workload", "resnet"}, {"--workload", "vit", "--trace", "2"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

// The phase checks reject a corrupted output of a real run: one adversarial
// pixel pushed outside ε, one served logit with a flipped bit, one NaN in
// the global weights.
func TestPhaseChecksRejectCorruptedOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a defender")
	}
	fam := families["bit"]
	e, err := setup(fam, 3, loadPlan(fam, time.Second, false))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := runProbe(e, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sr := runServe(e, false)
	fr, err := runFederate(e, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := checkServe(e, sr)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(append(checkProbe(e, pr), sc...), checkFederate(fr)...) {
		if c.err != nil {
			t.Fatalf("intact run: %s: %v", c.name, c.err)
		}
	}

	last := pr.outputs[len(pr.outputs)-1]
	x0 := e.batches[last.batch].X.Data()[0]
	if x0+2*attackEps <= 1 {
		last.adv.Data()[0] = x0 + 2*attackEps
	} else {
		last.adv.Data()[0] = x0 - 2*attackEps
	}
	if onlyFailure(checkProbe(e, pr)) != "probe: adversarial batches inside the ε-ball and [0,1]" {
		t.Error("adversarial pixel outside ε not caught")
	}

	row := sr.phases[0].reqs[0].res.Logits.Data()
	row[0] = math.Float32frombits(math.Float32bits(row[0]) ^ 1)
	if sc, err = checkServe(e, sr); err != nil || onlyFailure(sc) != "serve: served rows bit-identical to a direct ShieldedModel.Query" {
		t.Errorf("flipped logit bit not caught (%v)", err)
	}

	fr.feds[0].weights.Data[0][0] = float32(math.NaN())
	if onlyFailure(checkFederate(fr)) != "federate: global weights finite" {
		t.Error("NaN weight not caught")
	}
}

// onlyFailure returns the name of the only failing check, or a description of
// what went wrong instead.
func onlyFailure(cs []check) string {
	var names []string
	for _, c := range cs {
		if c.err != nil {
			names = append(names, c.name)
		}
	}
	if len(names) != 1 {
		return "failing checks: " + strings.Join(names, ", ")
	}
	return names[0]
}

// A short run of each variant passes its checks and prints exactly the
// metrics BENCHMARK.json declares for it.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "bit", "--seed", "2", "--seconds", "4", "--trace", trace}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", trace, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("trace %s: correct %v attempted %d", trace, res.Correct, res.Attempted)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("trace %s metrics\n got %v\nwant %v", trace, got, exp)
		}
	}
}
