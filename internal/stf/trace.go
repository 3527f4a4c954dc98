package stf

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TaskTrace records one executed task for profiling and for verifying that
// independent stages actually overlapped (the §3.3.1 concurrency claim).
type TaskTrace struct {
	ID    int
	Name  string
	Place string
	// Worker is the slot, 0…n−1, of the place's n-worker pool that
	// executed the task; the scaling tests use it to check that skewed
	// graphs still keep every worker busy.
	Worker int
	Start  time.Time
	End    time.Time
	Err    error
}

// Trace returns per-task execution records ordered by start time. Valid
// after Finalize.
func (c *Ctx) Trace() []TaskTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TaskTrace, 0, len(c.tasks))
	for _, t := range c.tasks {
		out = append(out, TaskTrace{
			ID: t.id, Name: t.name, Place: t.place.String(), Worker: t.worker,
			Start: t.started, End: t.ended, Err: t.err,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Overlapped reports whether any two distinct tasks' execution windows
// intersected — evidence of task-level concurrency.
func Overlapped(traces []TaskTrace) bool {
	for i := range traces {
		for j := i + 1; j < len(traces); j++ {
			a, b := traces[i], traces[j]
			if a.Start.IsZero() || b.Start.IsZero() {
				continue
			}
			if a.Start.Before(b.End) && b.Start.Before(a.End) {
				return true
			}
		}
	}
	return false
}

// DOT renders the inferred dependency DAG in Graphviz dot syntax, the same
// visualization CUDASTF offers for debugging task graphs.
func (c *Ctx) DOT() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	b.WriteString("digraph stf {\n  rankdir=LR;\n")
	for _, t := range c.tasks {
		shape := "box"
		if t.place.String() == "accel" {
			shape = "box3d"
		}
		fmt.Fprintf(&b, "  t%d [label=%q shape=%s];\n", t.id, fmt.Sprintf("%s@%s", t.name, t.place), shape)
	}
	type edge struct{ from, to int }
	var edges []edge
	for _, t := range c.tasks {
		for _, d := range t.deps {
			edges = append(edges, edge{d.id, t.id})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  t%d -> t%d;\n", e.from, e.to)
	}
	b.WriteString("}\n")
	return b.String()
}

// CriticalPath returns the longest chain length (in tasks) through the DAG,
// a quick measure of available parallelism: total tasks / critical path.
func (c *Ctx) CriticalPath() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	depth := make(map[int]int, len(c.tasks))
	longest := 0
	// Tasks were appended in submission order, which is a topological
	// order because dependencies always point backwards in program order.
	for _, t := range c.tasks {
		d := 1
		for _, dep := range t.deps {
			if depth[dep.id]+1 > d {
				d = depth[dep.id] + 1
			}
		}
		depth[t.id] = d
		if d > longest {
			longest = d
		}
	}
	return longest
}
