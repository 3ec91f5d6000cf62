// Command fluidibench regenerates the tables and figures of "Fluidic
// Kernels: Cooperative Execution of OpenCL Programs on Multiple
// Heterogeneous Devices" (CGO 2014) on the simulated machine.
//
// Usage:
//
//	fluidibench all                 # every experiment, paper order
//	fluidibench fig13               # one experiment (see `fluidibench list`)
//	fluidibench overall             # aliases accepted (overall = fig13)
//	fluidibench -csv fig17          # CSV output
//	fluidibench -quick all          # reduced workloads (smoke test)
//	fluidibench run SYRK            # run one benchmark under every strategy
//	fluidibench list                # list experiments and benchmarks
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/harness"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	quick := flag.Bool("quick", false, "use reduced workload sizes")
	parallel := flag.Int("parallel", 0, "concurrent experiment table cells (0 = GOMAXPROCS)")
	jsonOut := flag.String("jsonout", "", "write per-table wall-clock times as JSON to this file")
	traceOut := flag.String("trace", "", "run one benchmark under FluidiCL and write a Chrome trace_event JSON file here")
	dist := flag.Bool("dist", false, "print the per-benchmark CPU/GPU work-distribution table (paper §5.5)")
	backend := flag.String("backend", "", "work-group execution backend: interp, closure, or wg (default wg, or $FLUIDICL_BACKEND)")
	wgfuse := flag.String("wgfuse", "", "fused wg block execution: on or off (default on, or $FLUIDICL_WG_FUSE)")
	topology := flag.String("topology", "", "N-device topology for -trace, -dist and hash, e.g. cpu+gpu, 2cpu+2gpu, 4gpu-bus (default: the paper's cpu+gpu machine)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()

	switch *wgfuse {
	case "":
	case "on":
		vm.SetWGFuse(true)
	case "off":
		vm.SetWGFuse(false)
	default:
		fatal(fmt.Errorf("-wgfuse: want on or off, got %q", *wgfuse))
	}
	if *backend != "" {
		b, err := vm.ParseBackend(*backend)
		if err != nil {
			fatal(err)
		}
		vm.SetBackend(b)
	}

	if *traceOut != "" {
		if len(args) != 1 {
			fatal(fmt.Errorf("usage: fluidibench -trace out.json [-quick] [-topology T] <benchmark>"))
		}
		var err error
		if *topology != "" {
			err = chromeTraceTopology(args[0], *quick, *traceOut, *topology)
		} else {
			err = chromeTrace(args[0], *quick, *traceOut)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if *dist {
		var err error
		if *topology != "" {
			err = runDistTopology(*quick, *csv, *topology)
		} else {
			err = runDist(*quick, *csv)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	r := harness.NewRunner()
	r.Quick = *quick
	r.Parallel = *parallel

	switch args[0] {
	case "list":
		fmt.Println("experiments (in paper order):")
		for _, id := range harness.ExperimentIDs {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("extra experiments (beyond the paper):")
		for _, id := range harness.ExtraExperimentIDs {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("benchmarks (paper's Table 2 set):")
		for _, b := range polybench.All() {
			fmt.Printf("  %-8s input %-16s %d kernel(s)\n", b.Name, b.InputDesc, len(b.App.Launches))
		}
		fmt.Println("extra benchmarks:")
		for _, b := range polybench.Extras() {
			fmt.Printf("  %-8s input %-16s %d kernel(s)\n", b.Name, b.InputDesc, len(b.App.Launches))
		}
		return
	case "all":
		ids := append(append([]string{}, harness.ExperimentIDs...), harness.ExtraExperimentIDs...)
		var walls []wallEntry
		for _, id := range ids {
			before := core.CounterSnapshot()
			beforeS := trace.GlobalSnapshot()
			start := time.Now()
			t, err := r.Run(id)
			wall := time.Since(start)
			if err != nil {
				writeWalls(*jsonOut, walls)
				fatal(err)
			}
			emit(t, *csv)
			fmt.Printf("[%s: %.2fs wall]\n\n", t.ID, wall.Seconds())
			walls = append(walls, newWallEntry(t.ID, wall.Seconds(),
				core.CounterSnapshot().Sub(before), trace.GlobalSnapshot().Sub(beforeS)))
		}
		writeWalls(*jsonOut, walls)
		return
	case "hash":
		// Stdout stays pure "NAME HASH" lines (the CI matrix diffs them
		// verbatim across topologies); counters go to -jsonout only.
		before := core.CounterSnapshot()
		beforeS := trace.GlobalSnapshot()
		start := time.Now()
		if err := runHash(*quick, *topology); err != nil {
			fatal(err)
		}
		writeWalls(*jsonOut, []wallEntry{newWallEntry("hash", time.Since(start).Seconds(),
			core.CounterSnapshot().Sub(before), trace.GlobalSnapshot().Sub(beforeS))})
		return
	case "run":
		if len(args) < 2 {
			fatal(fmt.Errorf("usage: fluidibench run <benchmark>"))
		}
		if err := runOne(args[1]); err != nil {
			fatal(err)
		}
		return
	case "dump":
		if len(args) < 2 {
			fatal(fmt.Errorf("usage: fluidibench dump <benchmark>"))
		}
		if err := dumpOne(args[1]); err != nil {
			fatal(err)
		}
		return
	case "trace":
		if len(args) < 2 {
			fatal(fmt.Errorf("usage: fluidibench trace <benchmark>"))
		}
		if err := traceOne(args[1]); err != nil {
			fatal(err)
		}
		return
	default:
		before := core.CounterSnapshot()
		beforeS := trace.GlobalSnapshot()
		start := time.Now()
		t, err := r.Run(args[0])
		wall := time.Since(start)
		if err != nil {
			fatal(err)
		}
		emit(t, *csv)
		fmt.Printf("[%s: %.2fs wall]\n", t.ID, wall.Seconds())
		writeWalls(*jsonOut, []wallEntry{newWallEntry(t.ID, wall.Seconds(),
			core.CounterSnapshot().Sub(before), trace.GlobalSnapshot().Sub(beforeS))})
	}
}

// wallEntry is one experiment's host wall-clock cost (not virtual time)
// plus what its FluidiCL runs accumulated: the summary-driven elision
// counters and the trace-meter work distribution (virtual busy times,
// work-group split, link traffic, compute overlap). Everything except
// wall_seconds is virtual and therefore deterministic.
type wallEntry struct {
	ID                string  `json:"id"`
	WallSeconds       float64 `json:"wall_seconds"`
	UploadsSkipped    int64   `json:"uploads_skipped,omitempty"`
	PrimeCopiesElided int64   `json:"prime_copies_elided,omitempty"`
	ShipBytesSkipped  int64   `json:"ship_bytes_skipped,omitempty"`
	MergeWordsElided  int64   `json:"merge_words_elided,omitempty"`
	// Delta-refresh planner activity (N-way topology runs): bytes the
	// planner did not rebroadcast relative to a full per-device refresh,
	// delta scatter-writes enqueued, and the H2D bytes those deltas carried.
	RefreshBytesSkipped int64   `json:"refresh_bytes_skipped,omitempty"`
	RefreshDeltas       int64   `json:"refresh_deltas,omitempty"`
	BytesRefresh        int64   `json:"bytes_refresh,omitempty"`
	FluidiCLRuns        int64   `json:"fluidicl_runs,omitempty"`
	CPUBusySeconds      float64 `json:"cpu_busy_seconds,omitempty"`
	GPUBusySeconds      float64 `json:"gpu_busy_seconds,omitempty"`
	BothBusySeconds     float64 `json:"both_busy_seconds,omitempty"`
	CPUWGs              int64   `json:"cpu_wgs,omitempty"`
	GPUWGs              int64   `json:"gpu_wgs,omitempty"`
	LinkBusySeconds     float64 `json:"link_busy_seconds,omitempty"`
	BytesH2D            int64   `json:"bytes_h2d,omitempty"`
	BytesD2H            int64   `json:"bytes_d2h,omitempty"`
	OverlapFrac         float64 `json:"overlap_frac,omitempty"`
	// VM backend activity: work-groups per execution engine and static
	// superinstruction coverage of the kernels compiled during the run.
	ClosureWGs  int64 `json:"closure_wgs,omitempty"`
	InterpWGs   int64 `json:"interp_wgs,omitempty"`
	FusedInstrs int64 `json:"fused_instrs,omitempty"`
	TotalInstrs int64 `json:"total_instrs,omitempty"`
	// Whole-work-group compilation coverage: work-groups run by the
	// lockstep engine vs fallen back, and how many kernels/regions the
	// compilation pass produced.
	WGLoopWGs     int64 `json:"wg_loop_wgs,omitempty"`
	WGFallbackWGs int64 `json:"wg_fallback_wgs,omitempty"`
	WGKernels     int64 `json:"wg_kernels,omitempty"`
	WGRegions     int64 `json:"wg_regions,omitempty"`
	// Region-fusion coverage (DESIGN.md S20): fused blocks and the compiled
	// instructions they absorbed vs instructions left on per-step dispatch.
	WGFusedBlocks       int64 `json:"wg_fused_blocks,omitempty"`
	WGFusedSteps        int64 `json:"wg_fused_steps,omitempty"`
	WGFuseFallbackSteps int64 `json:"wg_fuse_fallback_steps,omitempty"`
	// Group-uniform work done once per group (DESIGN.md S21): steps run on
	// the scalar register file, and access columns folded as a shift.
	WGScalarSteps int64 `json:"wg_scalar_steps,omitempty"`
	WGFoldShifted int64 `json:"wg_fold_shifted,omitempty"`
	// Strided-certificate activity: launches whose CPU work-group splitting
	// was un-vetoed by the disjointness certificate, work-groups the
	// certificate admitted to the lockstep engine, and the per-reason
	// attribution of every wg-backend fallback.
	SplitsUnvetoed    int64 `json:"splits_unvetoed,omitempty"`
	WGStridedWGs      int64 `json:"wg_strided_wgs,omitempty"`
	WGCertRejShape    int64 `json:"wg_cert_reject_shape,omitempty"`
	WGCertRejAlias    int64 `json:"wg_cert_reject_alias,omitempty"`
	WGCertRejNoSum    int64 `json:"wg_cert_reject_no_summary,omitempty"`
	WGCertRejLocal    int64 `json:"wg_cert_reject_local_store,omitempty"`
	WGCertRejUnkStore int64 `json:"wg_cert_reject_unknown_store,omitempty"`
	WGCertRejUnkRead  int64 `json:"wg_cert_reject_unknown_read,omitempty"`
	WGCertRejOverlap  int64 `json:"wg_cert_reject_overlap,omitempty"`
	WGCertRejBudget   int64 `json:"wg_cert_reject_budget,omitempty"`
}

func newWallEntry(id string, wall float64, c core.Counters, s trace.GlobalSummary) wallEntry {
	return wallEntry{
		ID:                  id,
		WallSeconds:         wall,
		UploadsSkipped:      c.UploadsSkipped,
		PrimeCopiesElided:   c.PrimeCopiesElided,
		ShipBytesSkipped:    c.ShipBytesSkipped,
		MergeWordsElided:    c.MergeWordsElided,
		RefreshBytesSkipped: c.RefreshBytesSkipped,
		RefreshDeltas:       c.RefreshDeltas,
		BytesRefresh:        s.BytesRefresh,
		FluidiCLRuns:        s.Runs,
		CPUBusySeconds:      s.CPUBusy,
		GPUBusySeconds:      s.GPUBusy,
		BothBusySeconds:     s.BothBusy,
		CPUWGs:              s.CPUWGs,
		GPUWGs:              s.GPUWGs,
		LinkBusySeconds:     s.LinkBusy,
		BytesH2D:            s.BytesH2D,
		BytesD2H:            s.BytesD2H,
		OverlapFrac:         s.OverlapFrac(),
		ClosureWGs:          c.ClosureWGs,
		InterpWGs:           c.InterpWGs,
		FusedInstrs:         c.FusedInstrs,
		TotalInstrs:         c.TotalInstrs,
		WGLoopWGs:           c.WGLoopWGs,
		WGFallbackWGs:       c.WGFallbackWGs,
		WGKernels:           c.WGKernels,
		WGRegions:           c.WGRegions,
		WGFusedBlocks:       c.WGFusedBlocks,
		WGFusedSteps:        c.WGFusedSteps,
		WGFuseFallbackSteps: c.WGFuseFallbackSteps,
		WGScalarSteps:       c.WGScalarSteps,
		WGFoldShifted:       c.WGFoldShifted,
		SplitsUnvetoed:      c.SplitsUnvetoed,
		WGStridedWGs:        c.WGStridedWGs,
		WGCertRejShape:      c.WGCertRejShape,
		WGCertRejAlias:      c.WGCertRejAlias,
		WGCertRejNoSum:      c.WGCertRejNoSum,
		WGCertRejLocal:      c.WGCertRejLocal,
		WGCertRejUnkStore:   c.WGCertRejUnkStore,
		WGCertRejUnkRead:    c.WGCertRejUnkRead,
		WGCertRejOverlap:    c.WGCertRejOverlap,
		WGCertRejBudget:     c.WGCertRejBudget,
	}
}

func writeWalls(path string, walls []wallEntry) {
	if path == "" || walls == nil {
		return
	}
	data, err := json.MarshalIndent(walls, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func emit(t *harness.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

// runOne executes one benchmark under every strategy and prints a summary.
func runOne(name string) error {
	b, err := polybench.ByName(name)
	if err != nil {
		return err
	}
	m := sched.DefaultMachine()
	fresh := func() *polybench.Benchmark {
		nb, _ := polybench.ByName(name)
		return nb
	}

	type row struct {
		label string
		run   func() (*sched.Result, error)
	}
	rows := []row{
		{"CPU-only", func() (*sched.Result, error) { return sched.RunSingle(m.CPU, fresh().App) }},
		{"GPU-only", func() (*sched.Result, error) { return sched.RunSingle(m.GPU, fresh().App) }},
		{"Static 50/50", func() (*sched.Result, error) { return sched.RunStatic(m, fresh().App, 50) }},
		{"SOCL eager", func() (*sched.Result, error) { return sched.RunSocl(m, fresh().App, sched.Eager, nil) }},
		{"SOCL dmda", func() (*sched.Result, error) {
			app := fresh().App
			model, err := sched.CalibrateDmda(m, app)
			if err != nil {
				return nil, err
			}
			return sched.RunSocl(m, app, sched.Dmda, model)
		}},
		{"FluidiCL", func() (*sched.Result, error) { return sched.RunFluidiCL(m, fresh().App, core.Options{}) }},
	}
	fmt.Printf("benchmark %s, input %s, %d kernel(s)\n", b.Name, b.InputDesc, len(b.App.Launches))
	for _, r := range rows {
		res, err := r.run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.label, err)
		}
		if err := b.Verify(res.Outputs); err != nil {
			return fmt.Errorf("%s: wrong results: %w", r.label, err)
		}
		fmt.Printf("  %-12s %10.3f ms  (results verified)\n", r.label, res.Time*1e3)
		for _, rep := range res.Reports {
			fmt.Printf("    kernel %-16s wgs=%4d gpu=%4d (skip %d, abort %d) cpu=%4d in %d subkernel(s)%s\n",
				rep.Name, rep.TotalWGs, rep.GPUExecuted, rep.GPUSkipped, rep.GPUAborted,
				rep.CPUWGs, rep.Subkernels, didAll(rep.CPUDidAll))
		}
	}
	return nil
}

func didAll(b bool) string {
	if b {
		return "  [CPU completed entire NDRange]"
	}
	return ""
}

// benchFor resolves a benchmark name case-insensitively, at full scale or at
// the harness quick scale.
func benchFor(name string, quick bool) (*polybench.Benchmark, error) {
	n := strings.ToUpper(name)
	if quick {
		return polybench.ByNameQuick(n)
	}
	return polybench.ByName(n)
}

// chromeTrace runs one benchmark under FluidiCL with the event recorder
// attached and writes the recording as Chrome trace_event JSON: one track
// per simulated device, one per link, one for the FluidiCL runtime's
// scheduling decisions. The file loads in chrome://tracing and Perfetto.
func chromeTrace(name string, quick bool, out string) error {
	b, err := benchFor(name, quick)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	res, err := sched.RunFluidiCLTraced(sched.DefaultMachine(), b.App, core.Options{}, rec)
	if err != nil {
		return err
	}
	if err := b.Verify(res.Outputs); err != nil {
		return fmt.Errorf("wrong results: %w", err)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	cpu := res.Summary.ByKind("CPU")
	gpu := res.Summary.ByKind("GPU")
	fmt.Printf("wrote %s: %d events on %d tracks (open in chrome://tracing or ui.perfetto.dev)\n",
		out, len(rec.Events()), len(rec.Tracks()))
	fmt.Printf("%s %s: %.3f ms virtual; CPU busy %.3f ms (%d wgs), GPU busy %.3f ms (%d wgs), overlap %.0f%%\n",
		b.Name, b.InputDesc, res.Time*1e3,
		cpu.Busy*1e3, cpu.WGsExecuted, gpu.Busy*1e3, gpu.WGsExecuted,
		res.Summary.OverlapFrac()*100)
	return nil
}

// runDist reproduces the paper's §5.5 work-distribution reporting: for every
// Polybench benchmark, one FluidiCL run's CPU-vs-GPU work-group split,
// per-device busy time, link traffic and overhead, and the fraction of the
// smaller device's compute that overlapped the other device's.
func runDist(quick, csv bool) error {
	benches := polybench.AllWithExtras()
	if quick {
		benches = polybench.AllQuick()
	}
	m := sched.DefaultMachine()
	t := &harness.Table{
		ID:    "dist",
		Title: "FluidiCL work distribution and overhead breakdown (paper §5.5)",
		Note: "per-benchmark FluidiCL run: work-groups executed per device (app kernels only),\n" +
			"virtual busy and link time, bytes over the links, and compute overlap",
		Columns: []string{"Benchmark", "CPU-WGs", "GPU-WGs", "CPU-share", "CPU-busy", "GPU-busy", "link-busy", "link-wait", "H2D-KB", "D2H-KB", "overlap", "wg-fb", "wg-reject", "wg-fused", "fuse-cov", "time-ms"},
	}
	for _, b := range benches {
		before := core.CounterSnapshot()
		res, err := sched.RunFluidiCL(m, b.App, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		delta := core.CounterSnapshot().Sub(before)
		if err := b.Verify(res.Outputs); err != nil {
			return fmt.Errorf("%s: wrong results: %w", b.Name, err)
		}
		var cpuWGs, gpuWGs int64
		for _, rep := range res.Reports {
			cpuWGs += int64(rep.CPUWGs)
			gpuWGs += int64(rep.GPUExecuted)
		}
		share := 0.0
		if cpuWGs+gpuWGs > 0 {
			share = float64(cpuWGs) / float64(cpuWGs+gpuWGs)
		}
		cpu := res.Summary.ByKind("CPU")
		gpu := res.Summary.ByKind("GPU")
		t.AddRow(b.Name,
			fmt.Sprintf("%d", cpuWGs),
			fmt.Sprintf("%d", gpuWGs),
			fmt.Sprintf("%.0f%%", share*100),
			fmt.Sprintf("%.2fms", cpu.Busy*1e3),
			fmt.Sprintf("%.2fms", gpu.Busy*1e3),
			fmt.Sprintf("%.2fms", (cpu.LinkBusy+gpu.LinkBusy)*1e3),
			fmt.Sprintf("%.2fms", (cpu.LinkWait+gpu.LinkWait)*1e3),
			fmt.Sprintf("%.1f", float64(cpu.BytesH2D+gpu.BytesH2D)/1024),
			fmt.Sprintf("%.1f", float64(cpu.BytesD2H+gpu.BytesD2H)/1024),
			fmt.Sprintf("%.0f%%", res.Summary.OverlapFrac()*100),
			fmt.Sprintf("%d", delta.WGFallbackWGs),
			dominantReject(delta),
			fmt.Sprintf("%d", delta.WGFusedBlocks),
			fuseCoverage(delta),
			fmt.Sprintf("%.3f", res.Time*1e3))
	}
	emit(t, csv)
	return nil
}

// fuseCoverage formats the fraction of wg-compiled instructions absorbed
// into fused block closures, or "-" when the run compiled none (e.g. under
// a non-lockstep backend).
func fuseCoverage(c core.Counters) string {
	tot := c.WGFusedSteps + c.WGFuseFallbackSteps
	if tot == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", float64(c.WGFusedSteps)/float64(tot)*100)
}

// dominantReject names the most frequent wg-backend certificate rejection
// in a counter delta, or "-" when nothing fell back (e.g. under a
// non-lockstep backend, where no certificate runs at all).
func dominantReject(c core.Counters) string {
	type rc struct {
		name string
		n    int64
	}
	all := []rc{
		{"shape", c.WGCertRejShape},
		{"alias", c.WGCertRejAlias},
		{"no_summary", c.WGCertRejNoSum},
		{"local_store", c.WGCertRejLocal},
		{"unknown_store", c.WGCertRejUnkStore},
		{"unknown_read", c.WGCertRejUnkRead},
		{"overlap", c.WGCertRejOverlap},
		{"budget", c.WGCertRejBudget},
	}
	best := rc{name: "-"}
	for _, r := range all {
		if r.n > best.n {
			best = r
		}
	}
	return best.name
}

func usage() {
	fmt.Fprintf(os.Stderr, `fluidibench — regenerate the FluidiCL paper's tables and figures

usage:
  fluidibench [-csv] [-quick] [-parallel N] [-backend interp|closure|wg] [-wgfuse on|off] [-jsonout F] <experiment>|all
  fluidibench -trace out.json [-quick] [-topology T] <benchmark>   # Chrome trace_event JSON (chrome://tracing)
  fluidibench -dist [-quick] [-csv] [-topology T]   # work-distribution table (paper §5.5; per-device rows with -topology)
  fluidibench [-quick] [-topology T] hash   # benchmark output hashes (deterministic, topology-invariant)
  fluidibench run <benchmark>     # one benchmark under every strategy
  fluidibench trace <benchmark>   # cooperative-execution timeline (plain text)
  fluidibench dump <benchmark>    # transformed sources + bytecode disassembly
  fluidibench list

experiments: %v
extras: %v
`, harness.ExperimentIDs, harness.ExtraExperimentIDs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluidibench:", err)
	os.Exit(1)
}

// dumpOne shows what FluidiCL's compilation pipeline produces for a
// benchmark: the transformed GPU and CPU sources (the source-to-source
// passes' output) and the GPU bytecode disassembly of each kernel.
func dumpOne(name string) error {
	b, err := polybench.ByName(name)
	if err != nil {
		return err
	}
	env := sim.NewEnv()
	m := sched.DefaultMachine()
	rt, err := core.New(env, device.New(env, m.CPU), device.New(env, m.GPU), core.Options{})
	if err != nil {
		return err
	}
	prog, err := rt.BuildProgram(b.App.Source)
	if err != nil {
		return err
	}
	fmt.Printf("benchmark %s — original source:\n%s\n", b.Name, b.App.Source)
	fmt.Printf("==== transformed GPU source (abort checks, unrolled in-loop checks) ====\n%s\n", prog.GPUSrc)
	fmt.Printf("==== transformed CPU source (subkernel range guards) ====\n%s\n", prog.CPUSrc)
	seen := map[string]bool{}
	for _, l := range b.App.Launches {
		if seen[l.Kernel] {
			continue
		}
		seen[l.Kernel] = true
		k, err := prog.CreateKernel(l.Kernel)
		if err != nil {
			return err
		}
		fmt.Printf("==== GPU bytecode: %s ====\n%s\n", l.Kernel, k.DisasmGPU())
	}
	return nil
}

// traceOne runs one benchmark under FluidiCL with event tracing and prints
// the cooperative-execution timeline.
func traceOne(name string) error {
	b, err := polybench.ByName(name)
	if err != nil {
		return err
	}
	env := sim.NewEnv()
	m := sched.DefaultMachine()
	rt, err := core.New(env, device.New(env, m.CPU), device.New(env, m.GPU), core.Options{})
	if err != nil {
		return err
	}
	tr := rt.EnableTrace()
	prog, err := rt.BuildProgram(b.App.Source)
	if err != nil {
		return err
	}
	bufNames := make([]string, 0, len(b.App.Buffers))
	for bn := range b.App.Buffers {
		bufNames = append(bufNames, bn)
	}
	sort.Strings(bufNames)
	bufs := map[string]*core.Buffer{}
	for _, bn := range bufNames {
		bufs[bn] = rt.CreateBuffer(b.App.Buffers[bn])
	}
	kernels := map[string]*core.Kernel{}
	var runErr error
	env.Go("app", func(p *sim.Proc) {
		for _, bn := range bufNames {
			data := b.App.Inputs[bn]
			if data == nil {
				data = make([]byte, b.App.Buffers[bn])
			}
			rt.EnqueueWriteBuffer(p, bufs[bn], data)
		}
		for _, l := range b.App.Launches {
			k := kernels[l.Kernel]
			if k == nil {
				k = prog.MustKernel(l.Kernel)
				kernels[l.Kernel] = k
			}
			args := make([]core.Arg, len(l.Args))
			for i, a := range l.Args {
				switch a.Kind {
				case sched.ArgBuf:
					args[i] = core.BufArg(bufs[a.Name])
				case sched.ArgInt:
					args[i] = core.IntArg(a.I)
				default:
					args[i] = core.FloatArg(a.F)
				}
			}
			if err := rt.EnqueueNDRangeKernel(p, k, l.ND, args); err != nil {
				runErr = err
				return
			}
		}
		for _, bn := range b.App.Outputs {
			rt.EnqueueReadBuffer(p, bufs[bn])
		}
	})
	env.Run()
	if runErr != nil {
		return runErr
	}
	fmt.Printf("cooperative-execution timeline for %s %s:\n\n%s", b.Name, b.InputDesc, tr)
	return nil
}
