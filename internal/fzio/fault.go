package fzio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultFetcher is a seeded deterministic fault injector for the chaos
// tests. It wraps any ChunkFetcher and, per
// ReadRange, may inject a transient error, a latency spike, a truncated
// range (surfaced as the short-read error the fetcher contract demands),
// or bit corruption in the returned payload — either a random bit flip
// (caught by the container CRC check) or a crafted CRC32-preserving
// tail corruption (invisible to the CRC, caught only by Merkle proof
// verification). The injected error classes are all transient under the
// Transient taxonomy except the corruptions, which are not errors at
// the fetcher at all: they must travel undetected until an integrity
// check refuses them — that refusal, not a retry, is the correct answer
// to wrong bytes.
//
// Faults draw from one seeded PRNG, so a given seed and call count
// produce the same fault decisions run over run (concurrent callers
// interleave their draws, but the aggregate mix is stable). The injector
// is safe for concurrent use.
type FaultFetcher struct {
	inner ChunkFetcher
	cfg   FaultConfig

	mu    sync.Mutex
	rng   *rand.Rand
	calls int64 // ReadRange calls, for the every-Nth trigger

	stats struct {
		calls       atomic.Int64
		errors      atomic.Int64
		latencies   atomic.Int64
		truncations atomic.Int64
		corruptions atomic.Int64
		collisions  atomic.Int64
	}
}

// FaultConfig selects the injected fault mix. All rates are per-ReadRange
// probabilities in [0,1]; zero disables that class.
type FaultConfig struct {
	// Seed fixes the PRNG; runs with the same seed inject the same fault
	// sequence.
	Seed int64
	// ErrorRate injects a transient error (wrapping ErrTransient) before
	// the inner fetch runs.
	ErrorRate float64
	// ErrorEveryN deterministically fails every Nth ReadRange call
	// (counted across the fetcher's lifetime) the same way; 0 disables.
	// Combines with ErrorRate.
	ErrorEveryN int
	// LatencyRate delays the call by Latency before serving it.
	LatencyRate float64
	Latency     time.Duration
	// TruncateRate makes the fetch come back short: the fetcher surfaces
	// the short-read error (io.ErrUnexpectedEOF class) a truncated range
	// response produces, which the taxonomy retries.
	TruncateRate float64
	// CorruptRate flips one random bit of the returned payload — the
	// silent-corruption fault the container CRC check must catch.
	CorruptRate float64
	// CollideCRCRate corrupts the tail of the returned payload with a
	// nonzero error pattern chosen so the payload's CRC32 (IEEE) is
	// unchanged — the adversarial fault a 32-bit checksum cannot see,
	// which only Merkle proof verification catches. Ranges shorter than
	// 8 bytes pass through untouched.
	CollideCRCRate float64
}

// NewFaultFetcher wraps inner with the injector.
func NewFaultFetcher(inner ChunkFetcher, cfg FaultConfig) *FaultFetcher {
	return &FaultFetcher{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// decide draws this call's fault plan under the lock, so the PRNG stream
// stays one deterministic sequence.
func (f *FaultFetcher) decide(n int) (fail, spike, truncate bool, corruptBit int, collideDelta uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.cfg.ErrorEveryN > 0 && f.calls%int64(f.cfg.ErrorEveryN) == 0 {
		fail = true
	}
	if f.cfg.ErrorRate > 0 && f.rng.Float64() < f.cfg.ErrorRate {
		fail = true
	}
	if f.cfg.LatencyRate > 0 && f.rng.Float64() < f.cfg.LatencyRate {
		spike = true
	}
	if f.cfg.TruncateRate > 0 && f.rng.Float64() < f.cfg.TruncateRate {
		truncate = true
	}
	corruptBit = -1
	if f.cfg.CorruptRate > 0 && f.rng.Float64() < f.cfg.CorruptRate {
		corruptBit = f.rng.Intn(n * 8)
	}
	if f.cfg.CollideCRCRate > 0 && f.rng.Float64() < f.cfg.CollideCRCRate {
		for collideDelta == 0 {
			collideDelta = f.rng.Uint32()
		}
	}
	return fail, spike, truncate, corruptBit, collideDelta
}

// ReadRange implements ChunkFetcher, injecting this call's faults.
func (f *FaultFetcher) ReadRange(off int64, n int) ([]byte, error) {
	f.stats.calls.Add(1)
	fail, spike, truncate, corruptBit, collideDelta := f.decide(n)
	if spike {
		f.stats.latencies.Add(1)
		time.Sleep(f.cfg.Latency)
	}
	if fail {
		f.stats.errors.Add(1)
		return nil, fmt.Errorf("%w: injected error for [%d,%d)", ErrTransient, off, off+int64(n))
	}
	if truncate {
		// Serve a genuinely shortened range and let the wrapped fetcher
		// contract turn it into the short-read error a flaky server causes.
		f.stats.truncations.Add(1)
		short := n / 2
		if short < 1 {
			short = 1
		}
		out, err := f.inner.ReadRange(off, short)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("fzio: fetcher short read: %d of %d bytes at %d: %w",
			len(out), n, off, io.ErrUnexpectedEOF)
	}
	out, err := f.inner.ReadRange(off, n)
	if err != nil {
		return nil, err
	}
	if corruptBit >= 0 && len(out) > 0 {
		f.stats.corruptions.Add(1)
		out[(corruptBit/8)%len(out)] ^= 1 << (corruptBit % 8)
	}
	if collideDelta != 0 && corruptPreservingCRC32(out, collideDelta) {
		f.stats.collisions.Add(1)
	}
	return out, nil
}

// Size implements ChunkFetcher; sizing is served fault-free so chaos runs
// fail in the fetch path under test, not while opening the container.
func (f *FaultFetcher) Size() (int64, error) { return f.inner.Size() }

// Injected reports the faults delivered so far by class.
func (f *FaultFetcher) Injected() (errors, latencies, truncations, corruptions int64) {
	return f.stats.errors.Load(), f.stats.latencies.Load(),
		f.stats.truncations.Load(), f.stats.corruptions.Load()
}

// CRCCollisions reports the CRC-preserving corruptions delivered so far.
func (f *FaultFetcher) CRCCollisions() int64 { return f.stats.collisions.Load() }

// Calls reports the ReadRange calls observed.
func (f *FaultFetcher) Calls() int64 { return f.stats.calls.Load() }

// Inner returns the wrapped fetcher.
func (f *FaultFetcher) Inner() ChunkFetcher { return f.inner }

// CorruptPreservingCRC32 tampers with out while preserving its CRC32 —
// the adversarial corruption a 32-bit checksum cannot detect. Exported
// for chaos suites and integrity tests that need a deterministic
// CRC-colliding tamper without routing traffic through a FaultFetcher;
// see corruptPreservingCRC32 for the construction.
func CorruptPreservingCRC32(out []byte, delta uint32) bool {
	return corruptPreservingCRC32(out, delta)
}

// corruptPreservingCRC32 XORs a nonzero error pattern into the last 8
// bytes of out, chosen so crc32.ChecksumIEEE(out) is unchanged, and
// reports whether it applied (ranges shorter than 8 bytes are left
// untouched). delta seeds the first half of the pattern; the second
// half is solved for.
//
// CRC32 is affine over GF(2): crc(a⊕b) = crc(a) ⊕ crc(b) ⊕ crc(0^len)
// for equal-length inputs, so the checksum is preserved exactly when
// the error pattern E (zeros outside the 8-byte tail window) satisfies
// crc(E) = crc(0^len). Writing E's window as d‖c with d fixed from
// delta, the condition is linear in c, and the 32×32 system over the
// window's last four bytes is invertible (its columns are the CRC
// residues of x^0..x^31 at the message end), so a compensation c always
// exists and is found by Gaussian elimination.
func corruptPreservingCRC32(out []byte, delta uint32) bool {
	if delta == 0 || len(out) < 8 {
		return false
	}
	// CRC state after the unchanged zero prefix; φ(e) is then the CRC of
	// the full-length pattern 0^{len-8} ‖ e.
	base := crc32OfZeros(len(out) - 8)
	phi := func(e *[8]byte) uint32 { return crc32.Update(base, crc32.IEEETable, e[:]) }
	var zero [8]byte
	phi0 := phi(&zero)

	var d8 [8]byte
	binary.LittleEndian.PutUint32(d8[:4], delta)
	target := phi(&d8) ^ phi0 // ψ(d‖0): the CRC delta the tail must cancel

	// Basis: the CRC delta of each single bit of the window's last four
	// bytes.
	var cols [32]uint32
	for k := 0; k < 32; k++ {
		var b [8]byte
		b[4+k/8] = 1 << (k % 8)
		cols[k] = phi(&b) ^ phi0
	}
	x, ok := solveGF2(cols, target)
	if !ok {
		return false // unreachable: the system is invertible
	}
	w := out[len(out)-8:]
	for i := 0; i < 4; i++ {
		w[i] ^= d8[i]
	}
	for k := 0; k < 32; k++ {
		if x&(1<<k) != 0 {
			w[4+k/8] ^= 1 << (k % 8)
		}
	}
	return true
}

// crc32OfZeros returns the IEEE CRC32 state after n zero bytes.
func crc32OfZeros(n int) uint32 {
	var zeros [4096]byte
	crc := uint32(0)
	for n > 0 {
		k := n
		if k > len(zeros) {
			k = len(zeros)
		}
		crc = crc32.Update(crc, crc32.IEEETable, zeros[:k])
		n -= k
	}
	return crc
}

// solveGF2 solves A·x = target over GF(2), where A's k-th column is
// cols[k], by Gaussian elimination with combination tracking. Reports
// false when target is outside A's span.
func solveGF2(cols [32]uint32, target uint32) (uint32, bool) {
	var vec [32]uint32   // reduced vectors, indexed by leading bit
	var combo [32]uint32 // original columns composing each reduced vector
	for k := 0; k < 32; k++ {
		v, c := cols[k], uint32(1)<<k
		for v != 0 {
			b := bits.Len32(v) - 1
			if vec[b] == 0 {
				vec[b], combo[b] = v, c
				break
			}
			v ^= vec[b]
			c ^= combo[b]
		}
	}
	var x uint32
	for t := target; t != 0; {
		b := bits.Len32(t) - 1
		if vec[b] == 0 {
			return 0, false
		}
		t ^= vec[b]
		x ^= combo[b]
	}
	return x, true
}
