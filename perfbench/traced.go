package main

import (
	"fmt"
	"math"

	"fluidicl/internal/harness"
)

// perLayer lists the traced run's metrics, in print order. Host times are
// seconds per pass of the named span's self time; counts are per pass. A
// metric whose layer a workload does not call reads 0.
var perLayer = func() []metric {
	var ms []metric
	for _, id := range append(append([]string{}, harness.ExperimentIDs...), harness.ExtraExperimentIDs...) {
		ms = append(ms, metric{"harness." + id + "_s", "s"})
	}
	return append(ms, []metric{
		{"sched.fluidicl_s", "s"},
		{"sched.topology_s", "s"},
		{"sched.single_s", "s"},
		{"core.build_cold_s", "s"},
		{"core.wgs_total", "count"},
		{"core.cpu_wgs", "count"},
		{"core.gpu_wgs", "count"},
		{"core.gpu_wgs_skipped", "count"},
		{"core.gpu_wgs_aborted", "count"},
		{"core.subkernels", "count"},
		{"core.useful_wg_frac", "ratio"},
		{"core.uploads_skipped", "count"},
		{"core.ship_kb_skipped", "KB"},
		{"core.merge_words_elided", "count"},
		{"core.refresh_deltas", "count"},
		{"core.refresh_kb_skipped", "KB"},
		{"device.cpu_busy_ms", "sim_ms"},
		{"device.gpu_busy_ms", "sim_ms"},
		{"device.link_busy_ms", "sim_ms"},
		{"device.link_wait_ms", "sim_ms"},
		{"device.h2d_kb", "KB"},
		{"device.d2h_kb", "KB"},
		{"device.refresh_kb", "KB"},
		{"device.overlap_frac", "ratio"},
		{"vm.closure_wgs", "count"},
		{"vm.interp_wgs", "count"},
		{"vm.wg_loop_wgs", "count"},
		{"vm.wg_fallback_wgs", "count"},
		{"vm.wg_loop_frac", "ratio"},
		{"vm.wg_fused_step_frac", "ratio"},
		{"vm.exec_s", "s"},
		{"vm.dyn_ops", "count"},
		{"vm.ns_per_op", "ns"},
		{"clc.parse_s", "s"},
		{"clc.check_s", "s"},
		{"clc.tokens", "count"},
		{"analysis.summarize_s", "s"},
		{"passes.transform_s", "s"},
		{"vm.compile_s", "s"},
		{"trace.events", "count"},
		{"trace.write_s", "s"},
		{"trace.record_overhead_frac", "ratio"},
		{"bench.span_overhead_frac", "ratio"},
	}...)
}()

// tracedRun makes one untraced pass, then traced passes (half as many as
// the untraced run makes, at least 2), and computes the per-layer metrics.
// The end-to-end metrics come from the untraced run; the untraced pass here
// only measures what the spans themselves cost.
func tracedRun(w workload, passes int, c *checker, su *setupResult, dir, name string) (map[string]float64, error) {
	base := w.pass(1, nil)
	c.add(1, base, false)
	tr := &tracer{}
	traced := (passes + 1) / 2
	if traced < 2 {
		traced = 2
	}
	layer := map[string][]float64{}
	var opTotals []float64
	for p := 2; p < 2+traced; p++ {
		tr.pass = p
		from := len(tr.spans)
		ps := w.pass(p, tr)
		c.add(p, ps, true)
		for n, v := range tr.selfTimes(from) {
			layer[n+"_s"] = append(layer[n+"_s"], v)
		}
		opTotals = append(opTotals, sum(ps.ops))
	}
	fmt.Printf("# traced_passes=%d spans=%d\n", traced, len(tr.spans))

	out := map[string]float64{}
	for n, vs := range layer {
		out[n] = median(vs)
	}
	for k, v := range c.tracedRef.exact {
		out[k] = v
	}
	// Workloads whose ops build nothing cold report the fusion coverage of
	// the set-up builds.
	for k, v := range su.compile {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	out["core.useful_wg_frac"] = ratio(out["core.wgs_total"], out["core.cpu_wgs"]+out["core.gpu_wgs"])
	out["device.overlap_frac"] = ratio(out["device.both_busy_ms"], math.Min(out["device.cpu_busy_ms"], out["device.gpu_busy_ms"]))
	out["vm.wg_loop_frac"] = ratio(out["vm.wg_loop_wgs"], out["vm.wg_loop_wgs"]+out["vm.wg_fallback_wgs"])
	out["vm.wg_fused_step_frac"] = ratio(out["vm.wg_fused_steps"], out["vm.wg_fused_steps"]+out["vm.wg_fuse_fallback_steps"])
	out["vm.ns_per_op"] = ratio(out["vm.exec_s"]*1e9, out["vm.dyn_ops"])
	if out["trace.record_s"] > 0 {
		out["trace.record_overhead_frac"] = ratio(out["trace.record_s"], out["sched.fluidicl_s"]) - 1
	}
	out["bench.span_overhead_frac"] = ratio(median(opTotals), sum(base.ops)) - 1
	return out, tr.write(dir, name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
