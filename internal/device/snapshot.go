package device

// Snapshot is a read-only, point-in-time copy of a platform's live
// counters: transfer and launch traffic from Stats, the scratch-pool
// gets/hits/puts, and the SIMD kernel tier the dispatched hot loops run
// with. Unlike Stats — whose atomics are live and shared between all views
// of a platform — a Snapshot is plain data, safe to hand to metrics
// exporters and external callers without exposing the internals. Counters
// are loaded individually, so a snapshot taken while work is in flight is
// coherent per counter, not across counters.
type Snapshot struct {
	// BytesH2D and BytesD2H are the simulated host-to-device and
	// device-to-host transfer volumes; nothing charges them, so they read 0.
	BytesH2D, BytesD2H int64
	// KernelLaunches and HostLaunches count grid launches at each place.
	KernelLaunches, HostLaunches int64
	// Pool is the scratch-pool traffic; Pool.Gets == Pool.Puts when every
	// checkout has been returned.
	Pool PoolStats
	// Kernels names the active SIMD tier ("avx2", "neon", or "purego").
	Kernels string
}

// Snapshot copies the platform's live counters into a read-only value.
// Views of one platform (WithWorkers) share counters, so their snapshots
// agree.
func (p *Platform) Snapshot() Snapshot {
	st := p.Stats()
	return Snapshot{
		BytesH2D:       st.BytesH2D.Load(),
		BytesD2H:       st.BytesD2H.Load(),
		KernelLaunches: st.KernelLaunch.Load(),
		HostLaunches:   st.HostLaunch.Load(),
		Pool:           p.ScratchPool().Stats(),
		Kernels:        p.KernelImpl(),
	}
}
