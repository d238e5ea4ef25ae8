// Command perfbench is the repository's benchmark: one seeded workload —
// a defender family — driven through three phases in one process: probe
// (the compromised node's crafting loop against the shielded defender and
// its clear twin), serve (open-loop shielded inference with probe
// detection) and federate (deterministic FL rounds over loopback TCP).
//
//	perfbench --workload vit|bit --seed N --seconds S --trace 0|1
//
// It prints a report — host, set-up times, output checks, every metric
// with its unit and sample count — and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced variant and reports the
// per-layer ledger. It exits 1 when an output check fails and 2 on a
// usage or set-up error. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "defender family: vit or bit")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 40, "measured time: half probe, a quarter each serve and federate")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fam, ok := families[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload vit|bit, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	traced := *trace == 1
	// Half the measured time crafts, so the shielded query p99 rests on
	// enough samples; serving and federation share the rest.
	total := time.Duration(*seconds * float64(time.Second))
	probeBudget, serveBudget, fedBudget := total/2, total/4, total/4

	fmt.Fprintln(stdout, hostLine())
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", fam.name, *seed, *seconds, *trace)
	e, setups, err := timeSetups(fam, *seed, serveBudget, traced, setupRepeats)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "setup_s runs %v\n", setups)

	pr, err := runProbe(e, probeBudget, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: probe: %v\n", err)
		return 2
	}
	sr := runServe(e, traced)
	fr, err := runFederate(e, fedBudget, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: federate: %v\n", err)
		return 2
	}

	checks := checkProbe(e, pr)
	sc, err := checkServe(e, sr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: serve check: %v\n", err)
		return 2
	}
	checks = append(checks, sc...)
	checks = append(checks, checkFederate(fr)...)
	fmt.Fprintf(stdout, "robust accuracy shielded %.3f clear %.3f\n", pr.shieldedRobust, pr.clearRobust)

	m := &metrics{}
	l := &ledger{}
	if traced {
		pr.perLayer(m, l)
		sr.perLayer(m, l)
		fr.perLayer(m, l)
	} else {
		m.add("setup_s", medianOf(setups), "s", len(setups))
		m.add("peak_rss_mb", peakRSSMB(), "MiB", 1)
		pr.endToEnd(m, l)
		sr.endToEnd(m, l)
		fr.endToEnd(m)

	}
	if sr.saturated {
		fmt.Fprintln(stdout, "note: a ladder pass met the limit at every rate; its goodput is the top rate")
	}
	checks = append(checks, check{"every metric is a finite number", m.finite()})

	attempted, failed := sr.counts()
	attempted += pr.shielded.calls + pr.clear.calls + fr.updates
	correct := true
	for _, c := range checks {
		status := "PASS"
		if c.err != nil {
			status, correct = "FAIL", false
		}
		fmt.Fprintf(stdout, "check %s %s", status, c.name)
		if c.err != nil {
			fmt.Fprintf(stdout, ": %v", c.err)
		}
		fmt.Fprintln(stdout)
	}
	for _, p := range sr.phases {
		lat := p.latencies()
		fmt.Fprintf(stdout, "serve phase %-16s rate %7.1f/s p50 %8.3f ms p99 %8.3f ms n=%d\n", p.name, p.rate, lat.quantile(0.5), p.p99(), len(p.reqs))
	}
	for _, line := range l.lines {
		fmt.Fprintln(stdout, line)
	}
	for _, x := range m.list {
		fmt.Fprintf(stdout, "metric %-40s %14.4f %-6s n=%d\n", x.name, x.value, x.unit, x.samples)
	}
	if err := m.writeResult(stdout, correct, attempted, failed); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !correct {
		return 1
	}
	return 0
}

// check is one verified property of the program's output.
type check struct {
	name string
	err  error
}

type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type metrics struct{ list []metric }

func (m *metrics) add(name string, v float64, unit string, samples int) {
	m.list = append(m.list, metric{name, v, unit, samples})
}

func (m *metrics) finite() error {
	for _, x := range m.list {
		if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			return fmt.Errorf("%s = %v", x.name, x.value)
		}
	}
	return nil
}

// writeResult prints the result line. Non-finite values, which JSON
// cannot carry, are written as 0 and already failed the finite check.
func (m *metrics) writeResult(w io.Writer, correct bool, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, x := range m.list {
		v := x.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[x.name] = value{v, x.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// part is one named share of a composite, in milliseconds.
type part struct {
	name string
	ms   float64
}

// ledger collects the composite breakdowns and informational figures of
// the traced run.
type ledger struct{ lines []string }

// composite records total as its parts plus an explicit unattributed
// remainder, which it returns.
func (l *ledger) composite(name string, total float64, parts []part) float64 {
	rest := total
	s := fmt.Sprintf("composite %q total %.4f ms =", name, total)
	for _, p := range parts {
		rest -= p.ms
		s += fmt.Sprintf(" %s %.4f +", p.name, p.ms)
	}
	l.lines = append(l.lines, s+fmt.Sprintf(" unattributed %.4f", rest))
	return rest
}

// note records a figure that is reported but is not a metric of every
// workload (a kernel class one family never runs reads zero there).
func (l *ledger) note(name string, v float64, unit string) {
	l.lines = append(l.lines, fmt.Sprintf("info %s %.4f %s", name, v, unit))
}
