package main

import (
	"fluidicl/internal/sched"
	"fluidicl/internal/vm"
)

func addCounts(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// vmCounts returns the work-groups each engine executed between two
// snapshots of the process-global vm counters.
func vmCounts(after, before vm.BackendCounters) map[string]float64 {
	return map[string]float64{
		"vm.closure_wgs":     float64(after.ClosureWGs - before.ClosureWGs),
		"vm.interp_wgs":      float64(after.InterpWGs - before.InterpWGs),
		"vm.wg_loop_wgs":     float64(after.WGLoopWGs - before.WGLoopWGs),
		"vm.wg_fallback_wgs": float64(after.WGFallbackWGs - before.WGFallbackWGs),
	}
}

// resultCounts returns one run's runtime and device counts: work-group
// accounting from its kernel reports, the runtime's elision counters, and
// the trace meter's summary in simulated ms and KB.
func resultCounts(res *sched.Result) map[string]float64 {
	m := map[string]float64{}
	for _, r := range res.Reports {
		m["core.wgs_total"] += float64(r.TotalWGs)
		m["core.cpu_wgs"] += float64(r.CPUWGs)
		m["core.gpu_wgs"] += float64(r.GPUExecuted)
		m["core.gpu_wgs_skipped"] += float64(r.GPUSkipped)
		m["core.gpu_wgs_aborted"] += float64(r.GPUAborted)
		m["core.subkernels"] += float64(r.Subkernels)
	}
	c := res.Counters
	m["core.uploads_skipped"] = float64(c.UploadsSkipped)
	m["core.ship_kb_skipped"] = float64(c.ShipBytesSkipped) / 1024
	m["core.merge_words_elided"] = float64(c.MergeWordsElided)
	m["core.refresh_deltas"] = float64(c.RefreshDeltas)
	m["core.refresh_kb_skipped"] = float64(c.RefreshBytesSkipped) / 1024

	cpu, gpu := res.Summary.ByKind("CPU"), res.Summary.ByKind("GPU")
	m["device.cpu_busy_ms"] = cpu.Busy * 1e3
	m["device.gpu_busy_ms"] = gpu.Busy * 1e3
	m["device.both_busy_ms"] = res.Summary.BothBusy * 1e3
	m["device.link_busy_ms"] = (cpu.LinkBusy + gpu.LinkBusy) * 1e3
	m["device.link_wait_ms"] = (cpu.LinkWait + gpu.LinkWait) * 1e3
	m["device.h2d_kb"] = float64(cpu.BytesH2D+gpu.BytesH2D) / 1024
	m["device.d2h_kb"] = float64(cpu.BytesD2H+gpu.BytesD2H) / 1024
	m["device.refresh_kb"] = float64(cpu.BytesRefresh+gpu.BytesRefresh) / 1024
	return m
}

// dynOps sums the dynamic operation counts of an execution profile.
func dynOps(st vm.Stats) float64 {
	return float64(st.IntOps + st.FloatOps + st.SpecialOps + st.Branches +
		st.GlobalLoads + st.GlobalStores + st.LocalAccesses + st.Barriers)
}

// replayArgs binds a launch's arguments to host buffers.
func replayArgs(l sched.Launch, bufs map[string][]byte) []vm.Arg {
	args := make([]vm.Arg, len(l.Args))
	for i, a := range l.Args {
		switch a.Kind {
		case sched.ArgBuf:
			args[i] = vm.BufArg(bufs[a.Name])
		case sched.ArgInt:
			args[i] = vm.IntArg(a.I)
		default:
			args[i] = vm.FloatArg(a.F)
		}
	}
	return args
}

// hostBuffers returns fresh copies of an app's initial buffer contents.
func hostBuffers(app *sched.App) map[string][]byte {
	bufs := map[string][]byte{}
	for name, size := range app.Buffers {
		b := make([]byte, size)
		copy(b, app.Inputs[name])
		bufs[name] = b
	}
	return bufs
}
