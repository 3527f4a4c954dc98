package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op_id;
// parent is the operation's name (the benchmark is the only caller, so the
// tree is two levels deep: operation → layer call).
type span struct {
	OpID    int    `json:"op_id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and, per operation kind, the time each
// "layer.name" took in every operation, so per-layer medians fall out at the
// end of the run.
type tracer struct {
	t0    time.Time
	spans []span
	opID  int

	op       string
	opStart  time.Time
	excluded time.Duration         // time inside the op the replay spent on its own bookkeeping
	cur      map[string]float64    // "layer.name" → ms within the current op
	perOp    map[string][]opSample // op kind → one sample per operation
}

// opSample is one finished operation: its wall time net of excluded
// bookkeeping, and the per-"layer.name" sums of its spans.
type opSample struct {
	ms     float64
	layers map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), perOp: map[string][]opSample{}}
}

func (t *tracer) beginOp(kind string) {
	t.opID++
	t.op, t.opStart, t.excluded = kind, time.Now(), 0
	t.cur = map[string]float64{}
}

func (t *tracer) endOp() {
	end := time.Now()
	t.spans = append(t.spans, span{OpID: t.opID, Name: t.op, Layer: "op", StartNs: t.opStart.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	t.perOp[t.op] = append(t.perOp[t.op], opSample{ms: ms(end.Sub(t.opStart) - t.excluded), layers: t.cur})
}

// span starts a layer span inside the current op; call the result to end it.
func (t *tracer) span(layer, name string) func() {
	start := time.Now()
	return func() {
		end := time.Now()
		t.spans = append(t.spans, span{OpID: t.opID, Name: name, Layer: layer, Parent: t.op,
			StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
		t.cur[layer+"."+name] += ms(end.Sub(start))
	}
}

// reported records an op the benchmark did not stage itself: a daemon request
// whose inner durations come from the daemon's response headers. The parts
// are laid out back to back from the request's start, since the daemon
// reports how long each took, not when.
func (t *tracer) reported(kind string, start time.Time, totalMs float64, layer string, names []string, partsMs []float64) {
	t.opID++
	at := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{OpID: t.opID, Name: kind, Layer: "op", StartNs: at, EndNs: at + int64(totalMs*1e6)})
	layers := map[string]float64{}
	for i, name := range names {
		end := at + int64(partsMs[i]*1e6)
		t.spans = append(t.spans, span{OpID: t.opID, Name: name, Layer: layer, Parent: kind, StartNs: at, EndNs: end})
		layers[layer+"."+name] = partsMs[i]
		at = end
	}
	t.perOp[kind] = append(t.perOp[kind], opSample{ms: totalMs, layers: layers})
}

// untimed runs f without charging it to the current op: work the product
// does not do (a duplicate seal, an identity check).
func (t *tracer) untimed(f func()) {
	start := time.Now()
	f()
	t.excluded += time.Since(start)
}

// median is the median over the ops of one kind of what of says about each.
func (t *tracer) median(kind string, of func(opSample) float64) float64 {
	var s samples
	for _, o := range t.perOp[kind] {
		s = append(s, of(o))
	}
	return s.median()
}

// opMedian is the median wall time of the ops of one kind.
func (t *tracer) opMedian(kind string) float64 {
	return t.median(kind, func(o opSample) float64 { return o.ms })
}

// layerMedian is the median, over the ops of one kind, of the time spent in
// one "layer.name" per op (0 when the op never entered it).
func (t *tracer) layerMedian(kind, key string) float64 {
	return t.median(kind, func(o opSample) float64 { return o.layers[key] })
}

// layerSum is the median, over the ops of one kind, of the time spent in all
// layer spans per op.
func (t *tracer) layerSum(kind string) float64 {
	return t.median(kind, func(o opSample) float64 {
		sum := 0.0
		for _, v := range o.layers {
			sum += v
		}
		return sum
	})
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
