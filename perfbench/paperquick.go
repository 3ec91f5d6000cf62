package main

import (
	"fmt"
	"math"

	"fluidicl/internal/harness"
	"fluidicl/internal/sched"
	"fluidicl/internal/trace"
	"fluidicl/internal/vm"
)

// paperQuick runs every artifact (the paper's eleven plus the two extra
// experiments) at quick scale through harness.Runner.Run, in paper order;
// one op is one experiment. The seed does not change it: its op list is
// what users run to reproduce the paper.
//
// Runner.Run returns tables, not Results, so virt_ms here is the simulated
// device-busy time of the pass's FluidiCL runs, from trace.GlobalSnapshot.
// Parallel cells fold into that float sum in any order; rounding it to
// 1 ns keeps it exactly repeatable.
type paperQuick struct {
	ids    []string
	runner *harness.Runner
	tables []string // table text from the warm-up pass
}

func newPaperQuick(int64) (workload, error) {
	ids := append(append([]string{}, harness.ExperimentIDs...), harness.ExtraExperimentIDs...)
	return &paperQuick{
		ids:    ids,
		runner: &harness.Runner{M: sched.DefaultMachine(), Quick: true},
		tables: make([]string, len(ids)),
	}, nil
}

func (w *paperQuick) passes(seconds int) int { return passesFor(seconds, 7.2, len(w.ids)) }

func (w *paperQuick) pass(p int, tr *tracer) *passStats {
	ps := newPass()
	for i, id := range w.ids {
		before, beforeS := vm.BackendSnapshot(), trace.GlobalSnapshot()
		var tab *harness.Table
		sec, alloc, err := timed(tr, i, func() error {
			return tr.call("harness."+id, i, func() (err error) {
				tab, err = w.runner.Run(id)
				return err
			})
		})
		addCounts(ps.exact, vmCounts(vm.BackendSnapshot(), before))
		g := trace.GlobalSnapshot().Sub(beforeS)
		ps.virt += math.Round((g.CPUBusy+g.GPUBusy)*1e9) / 1e6
		if err == nil {
			// Runner.Run verifies every simulation's outputs itself; the
			// rendered table must also match the warm-up pass's.
			text := tab.String()
			if p == 0 {
				w.tables[i] = text
			} else if text != w.tables[i] {
				err = fmt.Errorf("%s: table text differs from the warm-up pass", id)
			}
		}
		ps.op(sec, alloc, err)
	}
	return ps
}
