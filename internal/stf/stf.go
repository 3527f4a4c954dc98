// Package stf is a sequential-task-flow dependency engine, a from-scratch
// reproduction of the role CUDASTF plays in the paper (§3.3.1): callers
// declare tasks in program order together with the tokens each task reads
// and writes; the engine infers the dependency DAG from those declarations
// and schedules ready tasks asynchronously onto execution places.
//
// Tokens carry dependencies only. A task's payloads travel through values
// its body captures (module outputs have sizes unknown at graph-build
// time — the pattern CUDASTF handles with oversized logical buffers):
//
//	ctx := stf.NewCtx(platform, 0)
//	codes := stf.NewToken(ctx, "codes")
//	var decoded []uint16
//	ctx.Task("decode").Writes(codes).On(device.Accel).
//	    Do(func(ti *stf.TaskInstance) error { decoded = ...; return nil })
//	ctx.Task("reconstruct").Reads(codes).On(device.Accel).
//	    Do(func(ti *stf.TaskInstance) error { ... decoded ...; return nil })
//	err := ctx.Finalize()
//	ctx.Release()
//
// Tasks whose token sets do not conflict run concurrently. Branch
// concurrency in the product graph comes from chunk sub-graphs sharing no
// token: the chunks of one compress or decompress proceed independently,
// so one chunk's accelerator prediction overlaps another's host encoding.
// Ready tasks execute on per-place work-stealing worker pools (see
// sched.go): each worker owns a bounded deque plus a private scratch-pool
// shard, and idle workers steal, so skewed chunk sub-graphs rebalance
// instead of convoying behind the slowest worker.
package stf

import (
	"errors"
	"fmt"
)

// AccessMode declares how a task uses a token.
type AccessMode int

const (
	// Read: the task only reads the data the token stands for.
	Read AccessMode = iota
	// Write: the task fully overwrites the data.
	Write
	// ReadWrite: the task reads and modifies the data.
	ReadWrite
)

// String returns "read", "write" or "rw".
func (m AccessMode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	case ReadWrite:
		return "rw"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Token is a logical datum of a Ctx that carries dependencies between the
// tasks declaring access to it. Its dependency frontier is maintained at
// task-declaration time (the "sequential" in sequential task flow): the
// last task that wrote the token, and all readers admitted since that
// write.
type Token struct {
	name       string // debug name
	lastWriter *task
	readers    []*task
}

// NewToken declares a named token of ctx's graph. Tokens do not survive
// Reset: declare fresh ones for the next batch.
func NewToken(_ *Ctx, name string) *Token {
	return &Token{name: name}
}

// ErrSkipped marks tasks not executed because an upstream dependency
// failed.
var ErrSkipped = errors.New("stf: task skipped due to failed dependency")
