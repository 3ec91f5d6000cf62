package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"fluidicl/internal/analysis"
	"fluidicl/internal/clc"
	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/passes"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
	"fluidicl/internal/vm"
)

const (
	genN         = 1024 // work-items, and words per buffer
	genLocal     = 64   // work-items per work-group
	genPerPass   = 250  // kernels per pass
	genMaxPasses = 6
	genKernelID  = "diff"
)

// genKernels runs a seeded stream of distinct random kernels from
// vm.GenProgram. One op builds a kernel cold (core.New +
// Runtime.BuildProgram) and runs it once on the GPU model with
// sched.RunSingle. The kernels are racy — they store at data-dependent
// indices — so they have no defined cooperative result and run on one
// device only. Outputs and errors are compared bit-exactly with the
// independent oracle vm.RefExec, which runs outside the timed window.
//
// A pass is a fixed list of seeded kernels. Pass p renames each kernel, so
// every op's source is new to the program's build caches while its
// analysis, code and simulated behaviour, and so every count, repeat
// exactly from pass to pass.
type genKernels struct {
	srcs   []string
	apps   []*sched.App // kernel named genKernelID; renamed per pass
	oracle []*genOutcome
	m      sched.Machine
}

// genOutcome is what vm.RefExec computed for one kernel.
type genOutcome struct {
	err  error
	bufs map[string][]byte
}

func newGenKernels(seed int64) (workload, error) {
	r := rand.New(rand.NewSource(seed))
	w := &genKernels{m: sched.DefaultMachine()}
	for i := 0; i < genPerPass; i++ {
		src := vm.GenProgram(r)
		fb := make([]byte, 4*genN)
		ib := make([]byte, 4*genN)
		for j := 0; j < genN; j++ {
			binary.LittleEndian.PutUint32(fb[4*j:], math.Float32bits(float32(r.Float64()*16-8)))
			binary.LittleEndian.PutUint32(ib[4*j:], uint32(int32(r.Intn(41)-20)))
		}
		w.srcs = append(w.srcs, src)
		w.apps = append(w.apps, &sched.App{
			Name:    fmt.Sprintf("gen%d", i),
			Buffers: map[string]int{"fbuf": 4 * genN, "ibuf": 4 * genN},
			Inputs:  map[string][]byte{"fbuf": fb, "ibuf": ib},
			Launches: []sched.Launch{{
				ND: vm.NewNDRange1D(genN, genLocal),
				Args: []sched.ArgSpec{sched.Buf("fbuf"), sched.Buf("ibuf"), sched.Int(genN),
					sched.Int(int64(r.Intn(13) - 6)), sched.Float(float64(r.Intn(17))/3 - 2)},
			}},
			Outputs: []string{"fbuf", "ibuf"},
		})
	}
	w.oracle = make([]*genOutcome, genPerPass)
	return w, nil
}

// passes caps a run at genMaxPasses: the build caches keep every program
// (about 0.2 MB each), so the cap bounds the run's live heap near 350 MB.
func (w *genKernels) passes(seconds int) int {
	return min(passesFor(seconds, 1.05, len(w.apps)), genMaxPasses)
}

// opApp returns kernel i as pass p runs it: the same program under a name
// no earlier op has used.
func (w *genKernels) opApp(p, i int) *sched.App {
	name := fmt.Sprintf("gen_p%d_k%d", p, i)
	app := *w.apps[i]
	app.Source = strings.Replace(w.srcs[i], "void "+genKernelID+"(", "void "+name+"(", 1)
	l := app.Launches[0]
	l.Kernel = name
	app.Launches = []sched.Launch{l}
	return &app
}

func (w *genKernels) pass(p int, tr *tracer) *passStats {
	ps := newPass()
	for i := range w.apps {
		app := w.opApp(p, i)
		var k *vm.Kernel
		if tr != nil {
			k = w.buildLayers(ps, tr, i, app)
		}
		var res *sched.Result
		before := vm.BackendSnapshot()
		sec, alloc, err := timed(tr, i, func() error {
			env := sim.NewEnv()
			rt, err := core.New(env, device.New(env, w.m.CPU), device.New(env, w.m.GPU), core.Options{})
			if err != nil {
				return err
			}
			if err := tr.call("core.build_cold", i, func() error {
				_, err := rt.BuildProgram(app.Source)
				return err
			}); err != nil {
				return err
			}
			return tr.call("sched.single", i, func() (err error) {
				res, err = sched.RunSingle(w.m.GPU, app)
				return err
			})
		})
		after := vm.BackendSnapshot()
		addCounts(ps.exact, vmCounts(after, before))
		addCounts(ps.exact, compileCounts(after, before))
		err = w.check(i, res, err)
		ps.op(sec, alloc, err)
		if err == nil && res != nil {
			ps.virt += float64(res.Time) * 1e3
			addCounts(ps.exact, resultCounts(res))
		}
		if k != nil {
			if err := w.replay(ps, tr, i, k, app); err != nil {
				ps.fail(fmt.Errorf("kernel %d: replay: %w", i, err))
			}
		}
	}
	return ps
}

// runOracle executes kernel i with vm.RefExec on fresh copies of its inputs.
func (w *genKernels) runOracle(i int) *genOutcome {
	app := w.apps[i]
	out := &genOutcome{bufs: hostBuffers(app)}
	ki, err := clc.FindKernelInfo(w.srcs[i], genKernelID)
	if err != nil {
		out.err = err
		return out
	}
	ref, err := vm.NewRefExec(ki)
	if err != nil {
		out.err = err
		return out
	}
	out.err = ref.ExecLaunch(app.Launches[0].ND, replayArgs(app.Launches[0], out.bufs))
	return out
}

// check compares an op's outcome with the oracle's: both must fail, or
// both succeed with bit-identical outputs.
func (w *genKernels) check(i int, res *sched.Result, err error) error {
	if w.oracle[i] == nil {
		w.oracle[i] = w.runOracle(i)
	}
	want := w.oracle[i]
	if (err == nil) != (want.err == nil) {
		return fmt.Errorf("kernel %d: error disagreement: program %v, RefExec %v", i, err, want.err)
	}
	if err != nil {
		return nil
	}
	for _, name := range w.apps[i].Outputs {
		if !bytes.Equal(res.Outputs[name], want.bufs[name]) {
			return fmt.Errorf("kernel %d: output %q differs from RefExec", i, name)
		}
	}
	return nil
}

// buildLayers calls each build layer's public entry point on the op's
// source before its own BuildProgram, so a cold build can be split by
// layer. None of these calls fills the core or ocl build caches. It
// returns the compiled kernel for the replay, or nil after a failure.
func (w *genKernels) buildLayers(ps *passStats, tr *tracer, i int, app *sched.App) *vm.Kernel {
	toks, err := clc.LexAll(app.Source)
	if err != nil {
		ps.fail(fmt.Errorf("kernel %d: lex: %w", i, err))
		return nil
	}
	ps.exact["clc.tokens"] += float64(len(toks))
	var prog *clc.Program
	var info *clc.ProgramInfo
	var sum *analysis.ProgramSummary
	var k *vm.Kernel
	steps := []struct {
		name string
		fn   func() error
	}{
		{"clc.parse", func() (err error) { prog, err = clc.Parse(app.Source); return err }},
		{"clc.check", func() (err error) { info, err = clc.Check(prog); return err }},
		{"analysis.summarize", func() error { sum = analysis.AnalyzeProgram(prog, ""); return nil }},
		{"passes.transform", func() error {
			// The options core.Runtime uses by default.
			gopt := passes.GPUOptions{AbortInLoops: true, Unroll: true}
			for _, kn := range prog.Kernels {
				if _, err := passes.TransformGPU(clc.CloneKernel(kn), gopt); err != nil {
					return err
				}
				if err := passes.TransformCPUWithSummary(clc.CloneKernel(kn), sum.Kernels[kn.Name]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"vm.compile", func() (err error) {
			k, err = vm.Compile(info.Kernels[app.Launches[0].Kernel])
			return err
		}},
	}
	for _, s := range steps {
		if err := tr.call(s.name, i, s.fn); err != nil {
			ps.fail(fmt.Errorf("kernel %d: %s: %w", i, s.name, err))
			return nil
		}
	}
	return k
}

// replay runs the op's launch through vm.Kernel.ExecLaunch on host buffers
// and checks the outputs against the oracle.
func (w *genKernels) replay(ps *passStats, tr *tracer, i int, k *vm.Kernel, app *sched.App) error {
	bufs := hostBuffers(app)
	var st vm.Stats
	err := tr.call("vm.exec", i, func() (err error) {
		st, err = k.ExecLaunch(app.Launches[0].ND, replayArgs(app.Launches[0], bufs), vm.ExecOpts{})
		return err
	})
	want := w.oracle[i]
	if (err == nil) != (want.err == nil) {
		return fmt.Errorf("error disagreement: ExecLaunch %v, RefExec %v", err, want.err)
	}
	ps.exact["vm.dyn_ops"] += dynOps(st)
	if err != nil {
		return nil
	}
	for _, name := range app.Outputs {
		if !bytes.Equal(bufs[name], want.bufs[name]) {
			return fmt.Errorf("output %q differs from RefExec", name)
		}
	}
	return nil
}
