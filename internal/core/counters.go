package core

import (
	"sync/atomic"

	"fluidicl/internal/vm"
)

// Counters tallies the transfer and merge work the runtime elided because
// the static kernel analyzer (package analysis) proved it unnecessary. All
// fields are updated atomically: the CPU scheduler thread and the enqueue
// path both record elisions.
type Counters struct {
	// UploadsSkipped counts host-to-GPU refreshes of stale out buffers that
	// were skipped because the kernel provably overwrites the whole buffer.
	UploadsSkipped int64
	// PrimeCopiesElided counts cpuCopy scratch primes skipped because the
	// narrowed merge window is fully covered by shipped CPU data.
	PrimeCopiesElided int64
	// ShipBytesSkipped counts bytes NOT sent CPU-to-GPU because subkernel
	// ships were narrowed to the slot range the subkernel wrote.
	ShipBytesSkipped int64
	// MergeWordsElided counts 4-byte words excluded from merge-kernel
	// launches by the analyzer-narrowed merge window.
	MergeWordsElided int64
	// SplitsUnvetoed counts launches whose work-group splitting was allowed
	// only because the strided disjointness certificate overturned a
	// conservative race veto.
	SplitsUnvetoed int64
	// RefreshBytesSkipped counts bytes the N-way delta-refresh planner did
	// NOT rebroadcast after kernels, relative to the old full per-device
	// refresh: per out buffer and device, the buffer size minus that
	// device's dirty delta (owner-skip plus unchanged words), plus pending
	// deltas dropped outright under a full-overwrite certificate.
	RefreshBytesSkipped int64
	// RefreshDeltas counts the delta scatter-writes ("refresh" transfers)
	// the planner enqueued to bring a stale device copy current.
	RefreshDeltas int64

	// VM backend activity (process-global, from vm.BackendSnapshot; only
	// CounterSnapshot fills these). ClosureWGs/InterpWGs count work-group
	// executions per engine; FusedInstrs/TotalInstrs report static
	// superinstruction coverage across kernel compilations.
	ClosureWGs  int64
	InterpWGs   int64
	FusedInstrs int64
	TotalInstrs int64

	// Whole-work-group compilation activity. WGLoopWGs counts work-groups
	// the lockstep engine executed; WGFallbackWGs counts wg-backend
	// dispatches that fell back to a per-item engine (uncompiled kernel or
	// failed noninterference certificate); WGKernels/WGRegions report how
	// many compiled kernels lowered to barrier-region loops and how many
	// regions they split into.
	WGLoopWGs     int64
	WGFallbackWGs int64
	WGKernels     int64
	WGRegions     int64

	// WGStridedWGs counts work-groups the strided disjointness certificate
	// admitted to the lockstep engine after the identical-form certificate
	// failed. The WGCertRej* fields attribute every wg-backend fallback to
	// one machine-readable reason (vm.WGReject).
	WGStridedWGs      int64
	WGCertRejShape    int64
	WGCertRejAlias    int64
	WGCertRejNoSum    int64
	WGCertRejLocal    int64
	WGCertRejUnkStore int64
	WGCertRejUnkRead  int64
	WGCertRejOverlap  int64
	WGCertRejBudget   int64

	// Region-fusion coverage of the wg engine (vm wgfuse pass), attributed
	// at wg-compile time: blocks lowered to a single fused closure, the
	// instructions those blocks cover, and body instructions left on the
	// per-step fallback path.
	WGFusedBlocks       int64
	WGFusedSteps        int64
	WGFuseFallbackSteps int64

	// Group-uniform work the wg engine did once (vm.BackendCounters):
	// step dispatches run on the scalar register file, and access columns
	// folded as a uniform shift of the previous one.
	WGScalarSteps int64
	WGFoldShifted int64
}

// globalCounters accumulates across every Runtime in the process, so
// harness tools can snapshot deltas around an experiment without plumbing
// runtime handles through.
var globalCounters Counters

// CounterSnapshot returns the process-wide elision counters plus the VM
// backend activity counters.
func CounterSnapshot() Counters {
	b := vm.BackendSnapshot()
	return Counters{
		UploadsSkipped:      atomic.LoadInt64(&globalCounters.UploadsSkipped),
		PrimeCopiesElided:   atomic.LoadInt64(&globalCounters.PrimeCopiesElided),
		ShipBytesSkipped:    atomic.LoadInt64(&globalCounters.ShipBytesSkipped),
		MergeWordsElided:    atomic.LoadInt64(&globalCounters.MergeWordsElided),
		SplitsUnvetoed:      atomic.LoadInt64(&globalCounters.SplitsUnvetoed),
		RefreshBytesSkipped: atomic.LoadInt64(&globalCounters.RefreshBytesSkipped),
		RefreshDeltas:       atomic.LoadInt64(&globalCounters.RefreshDeltas),
		ClosureWGs:          b.ClosureWGs,
		InterpWGs:           b.InterpWGs,
		FusedInstrs:         b.FusedInstrs,
		TotalInstrs:         b.TotalInstrs,
		WGLoopWGs:           b.WGLoopWGs,
		WGFallbackWGs:       b.WGFallbackWGs,
		WGKernels:           b.WGKernels,
		WGRegions:           b.WGRegions,
		WGStridedWGs:        b.WGStridedWGs,
		WGCertRejShape:      b.WGRejects[vm.WGRejShape],
		WGCertRejAlias:      b.WGRejects[vm.WGRejAlias],
		WGCertRejNoSum:      b.WGRejects[vm.WGRejNoSummary],
		WGCertRejLocal:      b.WGRejects[vm.WGRejLocalStore],
		WGCertRejUnkStore:   b.WGRejects[vm.WGRejUnknownStore],
		WGCertRejUnkRead:    b.WGRejects[vm.WGRejUnknownRead],
		WGCertRejOverlap:    b.WGRejects[vm.WGRejOverlap],
		WGCertRejBudget:     b.WGRejects[vm.WGRejBudget],
		WGFusedBlocks:       b.WGFusedBlocks,
		WGFusedSteps:        b.WGFusedSteps,
		WGFuseFallbackSteps: b.WGFuseFallbackSteps,
		WGScalarSteps:       b.WGScalarSteps,
		WGFoldShifted:       b.WGFoldShifted,
	}
}

// Sub returns c - o, for before/after snapshots around one experiment.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		UploadsSkipped:      c.UploadsSkipped - o.UploadsSkipped,
		PrimeCopiesElided:   c.PrimeCopiesElided - o.PrimeCopiesElided,
		ShipBytesSkipped:    c.ShipBytesSkipped - o.ShipBytesSkipped,
		MergeWordsElided:    c.MergeWordsElided - o.MergeWordsElided,
		SplitsUnvetoed:      c.SplitsUnvetoed - o.SplitsUnvetoed,
		RefreshBytesSkipped: c.RefreshBytesSkipped - o.RefreshBytesSkipped,
		RefreshDeltas:       c.RefreshDeltas - o.RefreshDeltas,
		ClosureWGs:          c.ClosureWGs - o.ClosureWGs,
		InterpWGs:           c.InterpWGs - o.InterpWGs,
		FusedInstrs:         c.FusedInstrs - o.FusedInstrs,
		TotalInstrs:         c.TotalInstrs - o.TotalInstrs,
		WGLoopWGs:           c.WGLoopWGs - o.WGLoopWGs,
		WGFallbackWGs:       c.WGFallbackWGs - o.WGFallbackWGs,
		WGKernels:           c.WGKernels - o.WGKernels,
		WGRegions:           c.WGRegions - o.WGRegions,
		WGStridedWGs:        c.WGStridedWGs - o.WGStridedWGs,
		WGCertRejShape:      c.WGCertRejShape - o.WGCertRejShape,
		WGCertRejAlias:      c.WGCertRejAlias - o.WGCertRejAlias,
		WGCertRejNoSum:      c.WGCertRejNoSum - o.WGCertRejNoSum,
		WGCertRejLocal:      c.WGCertRejLocal - o.WGCertRejLocal,
		WGCertRejUnkStore:   c.WGCertRejUnkStore - o.WGCertRejUnkStore,
		WGCertRejUnkRead:    c.WGCertRejUnkRead - o.WGCertRejUnkRead,
		WGCertRejOverlap:    c.WGCertRejOverlap - o.WGCertRejOverlap,
		WGCertRejBudget:     c.WGCertRejBudget - o.WGCertRejBudget,
		WGFusedBlocks:       c.WGFusedBlocks - o.WGFusedBlocks,
		WGFusedSteps:        c.WGFusedSteps - o.WGFusedSteps,
		WGFuseFallbackSteps: c.WGFuseFallbackSteps - o.WGFuseFallbackSteps,
		WGScalarSteps:       c.WGScalarSteps - o.WGScalarSteps,
		WGFoldShifted:       c.WGFoldShifted - o.WGFoldShifted,
	}
}

// Counters returns this runtime's elision counters.
func (r *Runtime) Counters() Counters {
	return Counters{
		UploadsSkipped:    atomic.LoadInt64(&r.ctr.UploadsSkipped),
		PrimeCopiesElided: atomic.LoadInt64(&r.ctr.PrimeCopiesElided),
		ShipBytesSkipped:  atomic.LoadInt64(&r.ctr.ShipBytesSkipped),
		MergeWordsElided:  atomic.LoadInt64(&r.ctr.MergeWordsElided),
		SplitsUnvetoed:    atomic.LoadInt64(&r.ctr.SplitsUnvetoed),
	}
}

func (r *Runtime) countUploadSkipped() {
	atomic.AddInt64(&r.ctr.UploadsSkipped, 1)
	atomic.AddInt64(&globalCounters.UploadsSkipped, 1)
}

func (r *Runtime) countPrimeElided() {
	atomic.AddInt64(&r.ctr.PrimeCopiesElided, 1)
	atomic.AddInt64(&globalCounters.PrimeCopiesElided, 1)
}

func (r *Runtime) countShipBytesSkipped(n int64) {
	atomic.AddInt64(&r.ctr.ShipBytesSkipped, n)
	atomic.AddInt64(&globalCounters.ShipBytesSkipped, n)
}

func (r *Runtime) countSplitUnvetoed() {
	atomic.AddInt64(&r.ctr.SplitsUnvetoed, 1)
	atomic.AddInt64(&globalCounters.SplitsUnvetoed, 1)
}

func (r *Runtime) countMergeWordsElided(n int64) {
	atomic.AddInt64(&r.ctr.MergeWordsElided, n)
	atomic.AddInt64(&globalCounters.MergeWordsElided, n)
}
