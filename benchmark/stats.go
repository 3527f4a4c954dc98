package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. Timing metrics carry the sample count, the
// quartiles and the highest percentile that still has at least ten samples
// beyond it; counts and ratios carry only the value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P25   float64 `json:"p25,omitempty"`
	P75   float64 `json:"p75,omitempty"`
	Tail  string  `json:"tail,omitempty"`
	TailV float64 `json:"tail_value,omitempty"`
}

// metrics maps metric name to value; one map per run.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// samples are per-operation durations in milliseconds.
type samples []float64

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (0..1) by linear interpolation between
// order statistics; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tail names the highest of p50/p90/p99/p99.9 that has at least ten samples
// beyond it, and returns its value.
func (s samples) tail() (string, float64) {
	name, q := "p50", 0.5
	for _, c := range []struct {
		name string
		q    float64
	}{{"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if float64(len(s))*(1-c.q) >= 10 {
			name, q = c.name, c.q
		}
	}
	return name, s.quantile(q)
}

// timing summarises latency samples as a metric whose value is f(median);
// f converts the median milliseconds into the reported unit (identity for a
// latency, bytes/time for a throughput). Quartiles are converted the same way.
func (s samples) timing(unit string, f func(medianMs float64) float64) metric {
	if f == nil {
		f = func(v float64) float64 { return v }
	}
	name, tv := s.tail()
	return metric{
		Value: f(s.median()), Unit: unit, N: len(s),
		P25: f(s.quantile(0.25)), P75: f(s.quantile(0.75)),
		Tail: name, TailV: f(tv),
	}
}

// gbs converts a per-operation time into GB/s for ops that each move bytes.
func gbs(bytes int) func(float64) float64 {
	return func(opMs float64) float64 {
		if opMs <= 0 {
			return 0
		}
		return float64(bytes) / 1e9 / (opMs / 1e3)
	}
}

// phase is the outcome of one timed phase: the latency of every successful
// op, and how many ops were attempted and failed.
type phase struct {
	ms        samples
	attempted int
	failed    int
	wall      time.Duration
}

// limits bound a phase: it runs at least minOps ops and then keeps going
// until budget is spent or maxOps (when > 0) is reached.
type limits struct {
	budget time.Duration
	minOps int
	maxOps int
}

func (l limits) more(i int, start time.Time) bool {
	if i < l.minOps {
		return true
	}
	if l.maxOps > 0 && i >= l.maxOps {
		return false
	}
	return time.Since(start) < l.budget
}

// slice returns the limits of one phase's turn in one round: its share of a
// round, or — when the run counts ops instead of time — exactly maxOps ops.
func (l limits) slice(share float64) limits {
	s := limits{budget: time.Duration(float64(l.budget) / rounds * share), minOps: 1, maxOps: l.maxOps}
	if l.maxOps > 0 {
		s.minOps = l.maxOps
	}
	return s
}

// rounds is how many turns each phase of an end-to-end run gets. Three turns
// at different times of the run cut what one burst of a noisy neighbour can
// put on a phase's samples to a third, so the median stays on quiet samples.
// Many short turns would spread a burst thinner still, but they measure
// something else: every switch between op kinds finds the product's
// sync.Pool-backed scratch pools flushed by the garbage the previous kind
// made, and with 0.1 s turns ops ran 15-35 % slower and less steadily than
// back to back.
const rounds = 3

// phaseSpec is one phase of an interleaved run: its name, its share of every
// round, and its op (see runInterleaved).
type phaseSpec struct {
	name  string
	share float64
	op    func(i int) (time.Duration, error)
}

// inRounds gives every phase its turns: round after round it calls turn(k, sl)
// for each phase k with that turn's limits, until lim's budget is spent and
// every phase has done lim.minOps ops; with lim.maxOps set it runs one round
// of exactly that many ops per phase. turn records its ops in phases[k].
func inRounds(lim limits, phases []*phase, shares []float64, turn func(k int, sl limits)) {
	for start := time.Now(); ; {
		enough := true
		for k, ph := range phases {
			t := time.Now()
			turn(k, lim.slice(shares[k]))
			ph.wall += time.Since(t)
			enough = enough && ph.attempted >= lim.minOps
		}
		if lim.maxOps > 0 || (enough && time.Since(start) >= lim.budget) {
			return
		}
	}
}

// runInterleaved runs the phases in rounds, one caller. An op times its own
// product call and returns that duration; everything else it does (output
// checks) is untimed. A returned error counts the op as failed and drops its
// latency. A phase's op index keeps counting across rounds.
func runInterleaved(lim limits, specs ...phaseSpec) []*phase {
	phases := make([]*phase, len(specs))
	shares := make([]float64, len(specs))
	for k, s := range specs {
		phases[k], shares[k] = &phase{}, s.share
	}
	inRounds(lim, phases, shares, func(k int, sl limits) {
		ph, start := phases[k], time.Now()
		for from := ph.attempted; sl.more(ph.attempted-from, start); {
			d, err := specs[k].op(ph.attempted)
			ph.record(specs[k].name, d, err)
		}
	})
	return phases
}

// runOps runs op exactly n times as one phase (the fixed-count phases of a
// traced run).
func runOps(name string, n int, op func(i int) (time.Duration, error)) *phase {
	ph := &phase{}
	start := time.Now()
	for i := 0; i < n; i++ {
		d, err := op(i)
		ph.record(name, d, err)
	}
	ph.wall = time.Since(start)
	return ph
}

func (ph *phase) record(name string, d time.Duration, err error) {
	ph.attempted++
	if err != nil {
		ph.failed++
		if ph.failed <= 3 {
			logf("%s: op failed: %v", name, err)
		}
		return
	}
	ph.ms = append(ph.ms, ms(d))
}

// tally sums attempted/failed over phases.
func tally(phases ...*phase) (attempted, failed int) {
	for _, ph := range phases {
		attempted += ph.attempted
		failed += ph.failed
	}
	return
}

// div is a/b, or 0 when b is 0 (a phase that produced no samples).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
