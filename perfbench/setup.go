package main

import (
	"fmt"
	"regexp"
	"runtime"

	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

// A run repeats set-up setupWarm+setupReps times; setup_s is the median of
// the last setupReps. The first repetitions pay one-time process costs
// (the merge kernel's build, heap growth) and run measurably slower.
const (
	setupWarm = 3
	setupReps = 9
)

// topoSpec is the N-device machine apps-full runs on beside the paper's
// cpu+gpu pair.
const topoSpec = "2cpu+2gpu"

type setupResult struct {
	seconds float64
	// compile holds the vm compile-time counters of building the Polybench
	// sources once (the last repetition).
	compile map[string]float64
}

var kernelDecl = regexp.MustCompile(`__kernel\s+void\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(`)

// renameKernels gives every kernel in src a new name. The program's build
// caches key on source text, including the transformed sources they print,
// so a renamed program is built cold while its analysis, passes, code and
// simulated behaviour stay those of the original.
func renameKernels(src, suffix string) string {
	return kernelDecl.ReplaceAllString(src, "__kernel void ${1}"+suffix+"(")
}

// measureSetup times the untimed warm-up every workload starts with:
// constructing the twin and the N-way runtimes and building the ten
// Polybench sources cold in both. Each repetition but the last builds
// renamed copies, so every repetition is cold; the last builds the real
// sources, which leaves them cached for the timed ops. The renamed copies
// stay in the build caches too, so heap_live_mb includes them.
func measureSetup() (*setupResult, error) {
	var srcs []string
	for _, ns := range polybench.Sources() {
		if ns.Name != "CORR-cpu-variant" { // a CPU variant, not an app source
			srcs = append(srcs, ns.Src)
		}
	}
	topo, err := device.ParseTopology(topoSpec)
	if err != nil {
		return nil, err
	}
	m := sched.DefaultMachine()
	var reps []float64
	res := &setupResult{}
	for r := 0; r < setupWarm+setupReps; r++ {
		suffix := fmt.Sprintf("__setup%d", r)
		if r == setupWarm+setupReps-1 {
			suffix = ""
		}
		// Each repetition starts from a collected heap, so the garbage of
		// the previous one does not land its GC cost here.
		runtime.GC()
		before := vm.BackendSnapshot()
		t0 := now()
		env := sim.NewEnv()
		rt, err := core.New(env, device.New(env, m.CPU), device.New(env, m.GPU), core.Options{})
		if err != nil {
			return nil, err
		}
		tenv := sim.NewEnv()
		trt, err := core.NewTopo(tenv, topo.Build(tenv), core.Options{})
		if err != nil {
			return nil, err
		}
		for _, src := range srcs {
			s := renameKernels(src, suffix)
			if _, err := rt.BuildProgram(s); err != nil {
				return nil, err
			}
			if _, err := trt.BuildProgram(s); err != nil {
				return nil, err
			}
		}
		if r >= setupWarm {
			reps = append(reps, now()-t0)
		}
		res.compile = compileCounts(vm.BackendSnapshot(), before)
	}
	res.seconds = median(reps)
	return res, nil
}

// compileCounts returns the wg fusion coverage attributed at compile time
// between two snapshots.
func compileCounts(after, before vm.BackendCounters) map[string]float64 {
	return map[string]float64{
		"vm.wg_fused_steps":         float64(after.WGFusedSteps - before.WGFusedSteps),
		"vm.wg_fuse_fallback_steps": float64(after.WGFuseFallbackSteps - before.WGFuseFallbackSteps),
	}
}
