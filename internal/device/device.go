// Package device provides a simulated heterogeneous computing platform.
//
// The FZModules paper runs its modules as CUDA kernels on NVIDIA V100/H100
// GPUs. This reproduction has no GPU, so the package models the two things a
// GPU imposes on module code and that the framework must manage:
//
//  1. An execution place with massive flat parallelism. Kernels are written
//     as grid-stride functions and launched over a worker pool via
//     LaunchGrid, exactly mirroring how the CUDA kernels partition work.
//  2. A distinct memory space. The package holds no device buffers and
//     nothing moves data between places: host and accelerator tasks share
//     one address space and hand each other values directly, so no
//     operation charges Stats.BytesH2D/BytesD2H (they stay only until the
//     engineering benchmark drops the metric that reads them). The paper's
//     Measured Bandwidth row (Table 1) survives as LinkBandwidth, the BW
//     term of Eq. 1.
//
// Two standard platforms are provided, modeled on Table 1 of the paper:
// NewH100Platform and NewV100Platform. They differ in modeled kernel width
// and host<->device bandwidth, which is what drives the Figure 2 vs Figure 3
// divergence in the paper's evaluation.
package device

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fzmod/internal/kernels/dispatch"
)

// Place identifies where a kernel executes or where a buffer lives.
type Place int

const (
	// Host is the CPU execution place and host memory space.
	Host Place = iota
	// Accel is the simulated accelerator place ("the GPU").
	Accel
)

// String returns the conventional short name for the place.
func (p Place) String() string {
	switch p {
	case Host:
		return "host"
	case Accel:
		return "accel"
	default:
		return fmt.Sprintf("place(%d)", int(p))
	}
}

// Platform models one node of Table 1: an accelerator with a worker pool,
// a host CPU pool, and a host<->device link with a fixed modeled bandwidth.
//
// A Platform value is a view over shared runtime state (counters, scratch
// pool, persistent grid workers): WithWorkers derives a view with a
// narrower kernel width over the same state, which is how an operation's
// worker budget caps its total parallelism without partitioning the
// machine's warm pools. All methods are safe for concurrent use.
type Platform struct {
	Name string

	// AccelWorkers is the kernel width used for Accel launches: the number
	// of chunks a grid launch is decomposed into (deterministic for a fixed
	// width, so results are reproducible per view).
	AccelWorkers int
	// HostWorkers is the kernel width used for Host launches.
	HostWorkers int

	// LinkBandwidth is the modeled host<->device bandwidth in bytes/sec,
	// the BW term of the paper's Eq. 1 overall-speedup model.
	LinkBandwidth float64

	// shared holds the runtime state every view of this platform uses:
	// stats, the scratch pool, and the persistent grid workers. Initialized
	// lazily so literal-constructed Platforms keep working; WithWorkers
	// views alias it.
	shared atomic.Pointer[platformShared]
}

// platformShared is the runtime state common to all views of one platform.
type platformShared struct {
	stats   Stats
	scratch BufPool

	// Persistent grid workers: launches dispatch chunks to a fixed set of
	// parked goroutines per place (the simulated SMs) instead of spawning
	// goroutines per launch, started lazily on the first launch and
	// stopped by Close.
	workersOnce sync.Once
	closeOnce   sync.Once
	closed      atomic.Bool
	quit        chan struct{}
	hostCh      chan gridJob
	accelCh     chan gridJob
}

// state returns the shared runtime state, creating it on first use. The
// CAS loser's speculative state owns no goroutines, so losing the race
// leaks nothing.
func (p *Platform) state() *platformShared {
	if s := p.shared.Load(); s != nil {
		return s
	}
	s := &platformShared{}
	if p.shared.CompareAndSwap(nil, s) {
		return s
	}
	return p.shared.Load()
}

// WithWorkers returns a view of the platform whose kernel width at both
// places is capped at n (floored at 1), sharing the receiver's counters,
// scratch pool and grid workers. The chunked executor uses it to give an
// operation a total parallelism budget: a budget-1 view runs every kernel
// inline on the calling goroutine, so concurrency comes only from the
// task level. n <= 0 returns the receiver unchanged.
func (p *Platform) WithWorkers(n int) *Platform {
	if n <= 0 {
		return p
	}
	cp := &Platform{
		Name:          p.Name,
		AccelWorkers:  min(p.Workers(Accel), n),
		HostWorkers:   min(p.Workers(Host), n),
		LinkBandwidth: p.LinkBandwidth,
	}
	cp.shared.Store(p.state())
	return cp
}

// Close stops the platform's persistent grid workers, the analogue of
// destroying the device context. It must not be called concurrently with
// launches; launches issued after Close execute inline on the caller.
// Close is idempotent, and a platform that never launched owns no workers.
// Closing any view closes the shared state.
func (p *Platform) Close() {
	s := p.state()
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		if s.quit != nil {
			close(s.quit)
		}
	})
}

// gridJob is one contiguous chunk of a grid launch handed to a worker.
type gridJob struct {
	lo, hi int
	kernel func(lo, hi int)
	wg     *sync.WaitGroup
}

// ScratchPool returns the platform's shared size-classed buffer pool, the
// allocator kernels and the STF runtime draw scratch slabs from. Views
// share one pool.
func (p *Platform) ScratchPool() *BufPool { return &p.state().scratch }

// workChan returns the persistent worker queue for a place, starting the
// workers on first use. Workers live for the lifetime of the platform and
// are shared by every view; the pool is sized for the machine (at least
// the first toucher's width), so narrow views never starve wide ones.
func (p *Platform) workChan(place Place) chan gridJob {
	s := p.state()
	s.workersOnce.Do(func() {
		hostW := max(p.Workers(Host), runtime.GOMAXPROCS(0))
		accelW := max(p.Workers(Accel), runtime.GOMAXPROCS(0))
		s.quit = make(chan struct{})
		s.hostCh = make(chan gridJob, 4*hostW)
		s.accelCh = make(chan gridJob, 4*accelW)
		for i := 0; i < hostW; i++ {
			go gridWorker(s.hostCh, s.quit)
		}
		for i := 0; i < accelW; i++ {
			go gridWorker(s.accelCh, s.quit)
		}
	})
	if place == Accel {
		return s.accelCh
	}
	return s.hostCh
}

func gridWorker(ch chan gridJob, quit chan struct{}) {
	for {
		select {
		case j := <-ch:
			j.kernel(j.lo, j.hi)
			j.wg.Done()
		case <-quit:
			return
		}
	}
}

// runChunks fans the chunks of [0, n) out over the persistent workers of a
// place. When the queue is saturated the caller executes the chunk inline,
// which both bounds queue latency and makes nested launches deadlock-free
// (and is what keeps many concurrent narrow views work-conserving: their
// launches degrade to inline execution instead of convoying in the queue).
func (p *Platform) runChunks(place Place, n, chunk int, kernel func(lo, hi int)) {
	if p.state().closed.Load() {
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			kernel(lo, hi)
		}
		return
	}
	ch := p.workChan(place)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		select {
		case ch <- gridJob{lo: lo, hi: hi, kernel: kernel, wg: &wg}:
		default:
			kernel(lo, hi)
			wg.Done()
		}
	}
	wg.Wait()
}

// Stats aggregates byte and launch counters for a platform. The hot
// counters are cache-line padded: they are bumped from every worker on the
// hot path, and without padding the adjacent atomics false-share one line.
type Stats struct {
	BytesH2D     atomic.Int64
	_            [56]byte
	BytesD2H     atomic.Int64
	_            [56]byte
	KernelLaunch atomic.Int64
	_            [56]byte
	HostLaunch   atomic.Int64
	_            [56]byte
}

// NewH100Platform returns a platform modeled on the paper's Quartz H100 node
// (Table 1): 4-way H100 SXM, measured multi-GPU host link ~35.7 GB/s.
func NewH100Platform() *Platform {
	return &Platform{
		Name:          "quartz-h100",
		AccelWorkers:  maxParallelism(),
		HostWorkers:   maxParallelism(),
		LinkBandwidth: 35.7e9,
	}
}

// NewV100Platform returns a platform modeled on the paper's Quartz V100 node
// (Table 1): 4-way V100 PCIe, measured multi-GPU host link ~6.91 GB/s.
func NewV100Platform() *Platform {
	return &Platform{
		Name:          "quartz-v100",
		AccelWorkers:  maxParallelism(),
		HostWorkers:   maxParallelism(),
		LinkBandwidth: 6.91e9,
	}
}

// NewTestPlatform returns a small deterministic platform for unit tests.
func NewTestPlatform() *Platform {
	return &Platform{
		Name:          "test",
		AccelWorkers:  4,
		HostWorkers:   2,
		LinkBandwidth: 1e9,
	}
}

func maxParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Stats returns a pointer to the live counters for inspection. Views share
// one counter set.
func (p *Platform) Stats() *Stats { return &p.state().stats }

// KernelImpl reports the SIMD implementation tier the dispatched hot-loop
// kernels run with ("avx2", "neon", or "purego"), fixed at process start
// (auto-detected, or forced via the FZMOD_KERNELS environment variable /
// the `purego` build tag). It is process-global — every Platform shares
// the one dispatch — but lives on Platform because execution evidence is
// read through it.
func (p *Platform) KernelImpl() string { return dispatch.Active() }

// KernelDetail reports the implementation behind each dispatched kernel by
// name; on tiers where the assembler covers only part of the kernel set
// (arm64), individual kernels may read "purego" under an active "neon"
// tier.
func (p *Platform) KernelDetail() map[string]string { return dispatch.PerKernel() }

// ResetStats zeroes all counters.
func (p *Platform) ResetStats() {
	st := p.Stats()
	st.BytesH2D.Store(0)
	st.BytesD2H.Store(0)
	st.KernelLaunch.Store(0)
	st.HostLaunch.Store(0)
}

// Workers reports the kernel width for a place: an operation's default budget.
func (p *Platform) Workers(place Place) int {
	if place == Accel {
		if p.AccelWorkers > 0 {
			return p.AccelWorkers
		}
		return 1
	}
	if p.HostWorkers > 0 {
		return p.HostWorkers
	}
	return 1
}

// LaunchGrid executes kernel over the half-open index range [0, n) at the
// given place, mirroring a grid-stride CUDA launch. The kernel receives a
// contiguous [lo, hi) chunk; chunk decomposition is deterministic for a
// fixed worker count so results are reproducible.
//
// LaunchGrid blocks until every chunk has completed ("stream-synchronous"
// launch); stages overlap through the STF scheduler, not through LaunchGrid.
func (p *Platform) LaunchGrid(place Place, n int, kernel func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if place == Accel {
		p.Stats().KernelLaunch.Add(1)
	} else {
		p.Stats().HostLaunch.Add(1)
	}
	workers := p.Workers(place)
	if workers == 1 || n < 2*minChunk {
		kernel(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk < minChunk {
		chunk = minChunk
	}
	p.runChunks(place, n, chunk, kernel)
}

// minChunk is the smallest per-worker chunk worth dispatching to a worker.
const minChunk = 1024

// LaunchBlocks executes kernel over the index range [0, n) where each index
// is a coarse-grained unit of work (a scan block, a codec chunk) rather than
// one element. Unlike LaunchGrid it applies no minimum-chunk floor, so even
// small n fans out across the place's workers; the decomposition is
// deterministic for a fixed worker count.
func (p *Platform) LaunchBlocks(place Place, n int, kernel func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if place == Accel {
		p.Stats().KernelLaunch.Add(1)
	} else {
		p.Stats().HostLaunch.Add(1)
	}
	workers := p.Workers(place)
	if workers == 1 || n == 1 {
		kernel(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	p.runChunks(place, n, chunk, kernel)
}
