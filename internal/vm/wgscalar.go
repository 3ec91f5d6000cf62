package vm

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Scalar uniform registers for the lockstep engine (DESIGN.md S21).
//
// While a phase is uniform every dispatch covers the whole group, and a
// register every item holds the same value for needs only one copy. The
// engine keeps that copy in a scalar register file (wmach.si / wmach.sf)
// with two masks per file:
//
//   - valid (iv/fv): the scalar holds the value every item has;
//   - stale (is/fs): valid, but the bank lanes have not been written yet.
//
// Invariant: for every register, either its valid bit is clear and the bank
// holds each item's value, or it is set and every item's value is the
// scalar — in the bank too unless the stale bit is set.
//
// On a full set, a step made only of ALU, move, immediate and launch-query
// ops (no memory ops, no idiv/imod, no per-item ids) whose upward-exposed
// inputs are all valid runs once on the scalars and charges its Stats once
// per item; its defs become valid and stale. Every other step materializes
// the stale scalars it reads, runs banked, and clears the valid and stale
// bits of its defs. The first partition of a phase flushes every stale scalar, so
// divergent sets always read current banks; a barrier re-joins the group
// with the masks intact, since they only ever describe values all items
// share.
//
// The per-step metadata (wgPlan) is built lazily by the pooled lockstep
// machine the first time it runs a kernel, and lives only as long as that
// machine: compiled kernels, which the build caches keep alive by the
// thousand, carry none of it, and no two goroutines ever share one plan.
// Kernels with more than 64 int or float registers get no plan and stay
// all-banked.

// wgNoScalar disables the scalar register file for every group started
// after it is set, so tests can compare the scalar and all-banked paths.
var wgNoScalar atomic.Bool

// wgStepPlan describes one dispatched step: the instruction range it
// covers, its upward-exposed register uses and its defs, and whether it may
// run on the scalar file.
type wgStepPlan struct {
	pc0, pc1       int32
	iu, fu, id, fd uint64
	scalar         bool
}

// wgPlan holds the step plans of every block back to back: block pc's
// steps start at steps[first[pc]] and parallel wblock.steps; when the block
// has fsteps, one more entry covering the whole body follows them.
type wgPlan struct {
	steps []wgStepPlan
	first []int32
}

// blockSteps returns the plans parallel to the step list the engine
// dispatches for blk.
func (p *wgPlan) blockSteps(blk *wblock, fused bool) []wgStepPlan {
	i := int(p.first[blk.start])
	if fused {
		i += len(blk.steps)
		return p.steps[i : i+1]
	}
	return p.steps[i : i+len(blk.steps)]
}

// buildScalarPlan segments every block body exactly as buildWBlock does
// (superinstruction shapes, skipped nops) and records each step's plan;
// nil when the register files do not fit the 64-bit masks.
func (k *Kernel) buildScalarPlan() *wgPlan {
	if k.NumI > 64 || k.NumF > 64 {
		return nil
	}
	wg := k.wg
	nSteps := 0
	for _, blk := range wg.blocks {
		if blk != nil {
			nSteps += len(blk.steps) + len(blk.fsteps)
		}
	}
	p := &wgPlan{steps: make([]wgStepPlan, 0, nSteps), first: make([]int32, len(wg.blocks))}
	for start, blk := range wg.blocks {
		if blk == nil {
			continue
		}
		p.first[start] = int32(len(p.steps))
		for pc := start; pc < blk.body; {
			ln := wsuperLen[k.wsuperShape(pc, blk.body)]
			if ln == 0 {
				if k.Code[pc].Op == opNop {
					pc++
					continue
				}
				ln = 1
			}
			p.steps = append(p.steps, k.stepPlan(pc, pc+ln))
			pc += ln
		}
		if got := len(p.steps) - int(p.first[start]); got != len(blk.steps) {
			panic("vm: scalar plan out of step with the wg block lowering")
		}
		if blk.fsteps != nil {
			p.steps = append(p.steps, k.stepPlan(start, blk.body))
		}
	}
	return p
}

// stepPlan summarizes code[pc0:pc1) as one step.
func (k *Kernel) stepPlan(pc0, pc1 int) wgStepPlan {
	sp := wgStepPlan{pc0: int32(pc0), pc1: int32(pc1), scalar: true}
	for _, in := range k.Code[pc0:pc1] {
		iu, fu, id, fd := wgUseDef(in)
		sp.iu |= iu &^ sp.id
		sp.fu |= fu &^ sp.fd
		sp.id |= id
		sp.fd |= fd
		sp.scalar = sp.scalar && wgScalarOp(in.Op)
	}
	return sp
}

// wgScalarOp reports whether op computes a group-uniform result from
// group-uniform inputs without touching memory or failing.
func wgScalarOp(op Op) bool {
	switch op {
	case opLDI, opLDF, opIMOV, opFMOV,
		opIADD, opISUB, opIMUL, opINEG,
		opFADD, opFSUB, opFMUL, opFDIV, opFNEG, opI2F, opF2I,
		opILT, opILE, opIGT, opIGE, opIEQ, opINE,
		opFLT, opFLE, opFGT, opFGE, opFEQ, opFNE, opNOTB,
		opGRP, opNGR, opLSZ, opGSZ, opGOFF, opWDIM,
		opSQRT, opFABS, opEXP, opLOG, opFLOOR, opCEIL, opPOW,
		opFMIN, opFMAX, opIMIN, opIMAX, opIABS:
		return true
	}
	return false
}

// scalarReset starts a group with every register valid: the banks were
// just zeroed and the parameter banks filled, so the scalars mirror them
// exactly and nothing is stale.
func (m *wmach) scalarReset() {
	m.si = sizedI64(m.si, m.k.NumI)
	m.sf = sizedF64(m.sf, m.k.NumF)
	for _, p := range m.k.Params {
		switch p.Kind {
		case ArgInt:
			m.si[p.IReg] = m.ib[int(p.IReg)*m.n]
		case ArgFloat:
			m.sf[p.FReg] = m.fb[int(p.FReg)*m.n]
		}
	}
	m.iv, m.fv = ^uint64(0), ^uint64(0)
	m.is, m.fs = 0, 0
}

// materialize broadcasts the stale scalars in the masks to their banks.
func (m *wmach) materialize(im, fm uint64) {
	n := m.n
	m.is &^= im
	m.fs &^= fm
	for ; im != 0; im &= im - 1 {
		r := bits.TrailingZeros64(im)
		v := m.si[r]
		bank := m.ib[r*n : r*n+n]
		for t := range bank {
			bank[t] = v
		}
	}
	for ; fm != 0; fm &= fm - 1 {
		r := bits.TrailingZeros64(fm)
		v := m.sf[r]
		bank := m.fb[r*n : r*n+n]
		for t := range bank {
			bank[t] = v
		}
	}
}

// flushScalars writes every stale scalar back to its bank; called when the
// phase first partitions.
func (m *wmach) flushScalars() {
	m.materialize(m.is, m.fs)
}

// execScalar runs code once on the scalar file and charges each
// instruction's Stats for all n items, exactly as n banked executions
// would. Only wgScalarOp opcodes reach it.
func (m *wmach) execScalar(code []Instr) {
	n := int64(m.n)
	si, sf := m.si, m.sf
	st := m.st
	for _, in := range code {
		a, b, c := in.A, in.B, in.C
		switch in.Op {
		case opLDI:
			si[a] = in.IImm
		case opLDF:
			sf[a] = in.FImm
		case opIMOV:
			si[a] = si[b]
		case opFMOV:
			sf[a] = sf[b]
		case opIADD:
			si[a] = si[b] + si[c]
			st.IntOps += n
		case opISUB:
			si[a] = si[b] - si[c]
			st.IntOps += n
		case opIMUL:
			si[a] = si[b] * si[c]
			st.IntOps += n
		case opINEG:
			si[a] = -si[b]
			st.IntOps += n
		case opFADD:
			sf[a] = float64(float32(sf[b]) + float32(sf[c]))
			st.FloatOps += n
		case opFSUB:
			sf[a] = float64(float32(sf[b]) - float32(sf[c]))
			st.FloatOps += n
		case opFMUL:
			sf[a] = float64(float32(sf[b]) * float32(sf[c]))
			st.FloatOps += n
		case opFDIV:
			sf[a] = float64(float32(sf[b]) / float32(sf[c]))
			st.FloatOps += n
		case opFNEG:
			sf[a] = -sf[b]
			st.FloatOps += n
		case opI2F:
			sf[a] = float64(float32(si[b]))
			st.IntOps += n
		case opF2I:
			f := sf[b]
			if math.IsNaN(f) {
				f = 0
			}
			si[a] = int64(f) // C truncation toward zero
			st.IntOps += n
		case opILT:
			si[a] = b2i(si[b] < si[c])
			st.IntOps += n
		case opILE:
			si[a] = b2i(si[b] <= si[c])
			st.IntOps += n
		case opIGT:
			si[a] = b2i(si[b] > si[c])
			st.IntOps += n
		case opIGE:
			si[a] = b2i(si[b] >= si[c])
			st.IntOps += n
		case opIEQ:
			si[a] = b2i(si[b] == si[c])
			st.IntOps += n
		case opINE:
			si[a] = b2i(si[b] != si[c])
			st.IntOps += n
		case opFLT:
			si[a] = b2i(sf[b] < sf[c])
			st.FloatOps += n
		case opFLE:
			si[a] = b2i(sf[b] <= sf[c])
			st.FloatOps += n
		case opFGT:
			si[a] = b2i(sf[b] > sf[c])
			st.FloatOps += n
		case opFGE:
			si[a] = b2i(sf[b] >= sf[c])
			st.FloatOps += n
		case opFEQ:
			si[a] = b2i(sf[b] == sf[c])
			st.FloatOps += n
		case opFNE:
			si[a] = b2i(sf[b] != sf[c])
			st.FloatOps += n
		case opNOTB:
			si[a] = b2i(si[b] == 0)
			st.IntOps += n
		case opGRP:
			si[a] = cdim(m.group, si[b])
			st.IntOps += n
		case opNGR, opLSZ, opGSZ:
			d := si[b]
			switch {
			case d < 0 || d > 2:
				si[a] = 1
			case in.Op == opNGR:
				si[a] = int64(m.nd.NumGroups[d])
			case in.Op == opLSZ:
				si[a] = int64(m.nd.LocalSize[d])
			default:
				si[a] = int64(m.nd.NumGroups[d] * m.nd.LocalSize[d])
			}
			st.IntOps += n
		case opGOFF:
			si[a] = 0
		case opWDIM:
			si[a] = int64(m.nd.Dims)
		case opSQRT:
			sf[a] = float64(float32(math.Sqrt(sf[b])))
			st.SpecialOps += n
		case opFABS:
			sf[a] = math.Abs(sf[b])
			st.SpecialOps += n
		case opEXP:
			sf[a] = float64(float32(math.Exp(sf[b])))
			st.SpecialOps += n
		case opLOG:
			sf[a] = float64(float32(math.Log(sf[b])))
			st.SpecialOps += n
		case opFLOOR:
			sf[a] = math.Floor(sf[b])
			st.SpecialOps += n
		case opCEIL:
			sf[a] = math.Ceil(sf[b])
			st.SpecialOps += n
		case opPOW:
			sf[a] = float64(float32(math.Pow(sf[b], sf[c])))
			st.SpecialOps += n
		case opFMIN:
			sf[a] = math.Min(sf[b], sf[c])
			st.FloatOps += n
		case opFMAX:
			sf[a] = math.Max(sf[b], sf[c])
			st.FloatOps += n
		case opIMIN:
			x, y := si[b], si[c]
			if y < x {
				x = y
			}
			si[a] = x
			st.IntOps += n
		case opIMAX:
			x, y := si[b], si[c]
			if y > x {
				x = y
			}
			si[a] = x
			st.IntOps += n
		case opIABS:
			v := si[b]
			if v < 0 {
				v = -v
			}
			si[a] = v
			st.IntOps += n
		}
	}
}
