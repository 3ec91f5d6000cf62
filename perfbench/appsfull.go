package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"

	"fluidicl/internal/clc"
	"fluidicl/internal/core"
	"fluidicl/internal/device"
	"fluidicl/internal/polybench"
	"fluidicl/internal/sched"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

// appsFull runs the ten Polybench apps at their default full sizes, each
// once under the twin runtime (sched.RunFluidiCL on the paper's cpu+gpu
// machine) and once under the N-way runtime (sched.RunTopology on
// 2cpu+2gpu). One op is one app on one machine; the seed permutes the op
// order, and one simulation runs at a time.
type appsFull struct {
	benches []*polybench.Benchmark
	topo    device.Topology
	order   []int // op order: a permutation of canonical op indices
	ref     []*sched.Result
	kernels []map[string]*vm.Kernel // per app, compiled on first traced use
}

// An op's canonical index is 2*app + machine, machine 0 the twin runtime
// and 1 the N-way one. Sums run in canonical order, so that simulated
// quantities repeat bit for bit whatever the seed.
func newAppsFull(seed int64) (workload, error) {
	topo, err := device.ParseTopology(topoSpec)
	if err != nil {
		return nil, err
	}
	benches := polybench.AllWithExtras()
	return &appsFull{
		benches: benches,
		topo:    topo,
		order:   rand.New(rand.NewSource(seed)).Perm(2 * len(benches)),
		ref:     make([]*sched.Result, 2*len(benches)),
		kernels: make([]map[string]*vm.Kernel, len(benches)),
	}, nil
}

func (w *appsFull) passes(seconds int) int { return passesFor(seconds, 4.4, len(w.order)) }

func (w *appsFull) pass(p int, tr *tracer) *passStats {
	ps := newPass()
	counts := make([]map[string]float64, len(w.order))
	virt := make([]float64, len(w.order))
	for i, op := range w.order {
		b := w.benches[op/2]
		var res *sched.Result
		before := vm.BackendSnapshot()
		sec, alloc, err := timed(tr, i, func() (err error) {
			if op%2 == 0 {
				return tr.call("sched.fluidicl", i, func() error {
					res, err = sched.RunFluidiCL(sched.DefaultMachine(), b.App, core.Options{})
					return err
				})
			}
			return tr.call("sched.topology", i, func() error {
				res, err = sched.RunTopology(w.topo, b.App, core.Options{})
				return err
			})
		})
		vmc := vmCounts(vm.BackendSnapshot(), before)
		if err == nil {
			err = w.check(p, op, res)
		}
		if err == nil {
			counts[op] = resultCounts(res)
			addCounts(counts[op], vmc)
			virt[op] = float64(res.Time) * 1e3
		}
		ps.op(sec, alloc, err)
		if tr != nil {
			// Replaying the op's launches on one engine shows how much of
			// the op is VM execution.
			if err := w.replay(ps, tr, i, op/2); err != nil {
				ps.fail(fmt.Errorf("%s: replay: %w", b.Name, err))
			}
		}
	}
	for op, c := range counts {
		ps.virt += virt[op]
		addCounts(ps.exact, c)
	}
	if tr != nil {
		w.tracedCalls(ps, tr)
	}
	return ps
}

// check verifies a run's outputs bit-exactly against the app's reference,
// and its simulated time and outputs against the warm-up pass's run.
func (w *appsFull) check(p, op int, res *sched.Result) error {
	b := w.benches[op/2]
	if err := b.Verify(res.Outputs); err != nil {
		return err
	}
	if p == 0 {
		w.ref[op] = res
		return nil
	}
	return sameResult(w.ref[op], res)
}

func sameResult(want, got *sched.Result) error {
	if want == nil {
		return fmt.Errorf("no warm-up result to compare with")
	}
	if math.Float64bits(float64(got.Time)) != math.Float64bits(float64(want.Time)) {
		return fmt.Errorf("simulated time %v, warm-up pass had %v", got.Time, want.Time)
	}
	for name, o := range want.Outputs {
		if !bytes.Equal(o, got.Outputs[name]) {
			return fmt.Errorf("output %q differs from the warm-up pass", name)
		}
	}
	return nil
}

// tracedCalls runs each app once more under the twin runtime with a
// trace recorder attached, and exports the recording as a Chrome trace.
func (w *appsFull) tracedCalls(ps *passStats, tr *tracer) {
	for ai, b := range w.benches {
		rec := trace.NewRecorder()
		var res *sched.Result
		err := tr.call("trace.record", -1, func() (err error) {
			res, err = sched.RunFluidiCLTraced(sched.DefaultMachine(), b.App, core.Options{}, rec)
			return err
		})
		if err == nil {
			err = sameResult(w.ref[2*ai], res)
		}
		if err == nil {
			err = tr.call("trace.write", -1, func() error { return rec.WriteChrome(io.Discard) })
		}
		if err != nil {
			ps.fail(fmt.Errorf("%s: traced run: %w", b.Name, err))
			continue
		}
		ps.exact["trace.events"] += float64(len(rec.Events()))
	}
}

// replay runs app ai's launches through vm.Kernel.ExecLaunch on host
// buffers, at the default engine configuration, and verifies the outputs.
func (w *appsFull) replay(ps *passStats, tr *tracer, op, ai int) error {
	b := w.benches[ai]
	if w.kernels[ai] == nil {
		prog, err := clc.Parse(b.App.Source)
		if err != nil {
			return err
		}
		info, err := clc.Check(prog)
		if err != nil {
			return err
		}
		ks := map[string]*vm.Kernel{}
		for name, ki := range info.Kernels {
			if ks[name], err = vm.Compile(ki); err != nil {
				return err
			}
		}
		w.kernels[ai] = ks
	}
	bufs := hostBuffers(b.App)
	var total vm.Stats
	for _, l := range b.App.Launches {
		k := w.kernels[ai][l.Kernel]
		if k == nil {
			return fmt.Errorf("no kernel %q", l.Kernel)
		}
		args := replayArgs(l, bufs)
		err := tr.call("vm.exec", op, func() error {
			st, err := k.ExecLaunch(l.ND, args, vm.ExecOpts{})
			total.Add(st)
			return err
		})
		if err != nil {
			return err
		}
	}
	ps.exact["vm.dyn_ops"] += dynOps(total)
	return b.Verify(bufs)
}
