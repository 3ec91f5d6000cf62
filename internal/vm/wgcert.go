package vm

import (
	"math"
	"sort"
)

// Launch-time noninterference certificate for the lockstep engine.
//
// The lockstep engine executes a barrier-free region for all work-items of
// a group in an order that interleaves items block by block, instead of
// running each item to completion. That reordering is unobservable — same
// buffers, same per-item register trajectories, same Stats after the
// tracker replay — exactly when no work-item reads or writes a global or
// __local location that another item of the same group writes within the
// same region. (Across regions the barrier orders everything in both
// engines, and private arrays are per-item by construction.)
//
// wgCertify proves that property per launch shape with a tiny abstract
// interpretation over the kernel's integer registers: every value is either
// TOP or an affine form c0 + c1*lid0 + c2*lid1 + c3*lid2 + c4*grp0 +
// c5*grp1 + c6*grp2 with concrete int64 coefficients (scalar arguments and
// launch dimensions are known numbers at this point; group ids stay
// symbolic so one certificate covers every group of the launch). A region
// passes if, for every buffer or local array it stores to, all stores and
// all loads of that object use one identical affine index form whose
// lid-coefficients map distinct local ids to distinct indices — then item t
// only ever touches its own location, groups cannot collide with themselves,
// and any per-item-order-preserving schedule commutes.
//
// The certificate depends only on (dims, local size, num groups, scalar
// argument values), so it is cached per pooled scratch under that key.
// Buffer aliasing — two arguments backed by the same storage — would defeat
// the disjointness argument and is not part of that key, so wgCertified
// re-checks it for every work-group by comparing the first-byte addresses
// of the actual buffer arguments, and rejects aliased launches (WGRejAlias).

// aval is the abstract value of one integer register: TOP (unknown) or an
// affine form over {1, lid0, lid1, lid2, grp0, grp1, grp2}.
type aval struct {
	top bool
	c   [7]int64
}

func aTop() aval          { return aval{top: true} }
func aConst(v int64) aval { return aval{c: [7]int64{v}} }
func (v aval) isConst() bool {
	return !v.top && v.c[1] == 0 && v.c[2] == 0 && v.c[3] == 0 && v.c[4] == 0 && v.c[5] == 0 && v.c[6] == 0
}

func aAdd(x, y aval, sign int64) aval {
	if x.top || y.top {
		return aTop()
	}
	for i := range x.c {
		x.c[i] += sign * y.c[i]
	}
	return x
}

func aMul(x, y aval) aval {
	if x.top || y.top {
		return aTop()
	}
	if y.isConst() {
		for i := range x.c {
			x.c[i] *= y.c[0]
		}
		return x
	}
	if x.isConst() {
		for i := range y.c {
			y.c[i] *= x.c[0]
		}
		return y
	}
	return aTop()
}

func aJoin(x, y aval) aval {
	if x.top || y.top || x.c != y.c {
		return aTop()
	}
	return x
}

// wgCert caches one certificate decision per launch shape, plus the scratch
// the dataflow reuses. It lives inside a pooled wgScratch, so access is
// single-goroutine.
type wgCert struct {
	key    []uint64
	keyTmp []uint64
	valid  bool
	ok     bool
	// second: the cached admission came from the strided disjointness
	// certificate, not the identical-form one. rej is the fallback reason
	// when ok is false.
	second bool
	rej    WGReject

	in      [][]aval // fixpoint in-state per leader pc
	reached []bool
	st      []aval
	work    []int
	accV    map[int]aval
	vals    []int64
}

// wgCertified reports whether this work-group may run on the lockstep
// engine: no aliased buffer arguments, and the cached (or freshly computed)
// certificate for the launch shape holds. When the identical-form
// certificate fails, the strided disjointness certificate (wgreject.go)
// gets a second chance before the launch shape is rejected. The returned
// reason names the fallback cause when the answer is no.
func (k *Kernel) wgCertified(c *wgCert, nd NDRange, args []Arg) (bool, WGReject) {
	for i := range args {
		if args[i].Kind != ArgBuffer || len(args[i].Buf) == 0 {
			continue
		}
		for j := i + 1; j < len(args); j++ {
			if args[j].Kind == ArgBuffer && len(args[j].Buf) != 0 && &args[i].Buf[0] == &args[j].Buf[0] {
				return false, WGRejAlias
			}
		}
	}
	key := c.keyTmp[:0]
	key = append(key, uint64(nd.Dims),
		uint64(nd.LocalSize[0]), uint64(nd.LocalSize[1]), uint64(nd.LocalSize[2]),
		uint64(nd.NumGroups[0]), uint64(nd.NumGroups[1]), uint64(nd.NumGroups[2]))
	for i, p := range k.Params {
		switch p.Kind {
		case ArgInt:
			key = append(key, uint64(args[i].I))
		case ArgFloat:
			key = append(key, math.Float64bits(args[i].F))
		}
	}
	c.keyTmp = key
	if c.valid && len(c.key) == len(key) {
		same := true
		for i := range key {
			if c.key[i] != key[i] {
				same = false
				break
			}
		}
		if same {
			return c.ok, c.rej
		}
	}
	c.ok = k.wgCertify(c, nd, args)
	c.second, c.rej = false, WGRejNone
	if !c.ok {
		c.ok, c.rej = k.wgSecondChance(nd, args)
		c.second = c.ok
	}
	c.key = append(c.key[:0], key...)
	c.valid = true
	return c.ok, c.rej
}

// wgCertify runs the affine dataflow to a fixpoint and checks every region's
// store/load index forms.
func (k *Kernel) wgCertify(c *wgCert, nd NDRange, args []Arg) bool {
	wg := k.wg
	code := k.Code
	n := len(code)

	// Entry state: registers are zeroed at work-group start; scalar int
	// arguments are concrete constants.
	init := make([]aval, k.NumI)
	for i, p := range k.Params {
		if p.Kind == ArgInt {
			init[p.IReg] = aConst(args[i].I)
		}
	}
	if len(c.in) != n {
		c.in = make([][]aval, n)
		c.reached = make([]bool, n)
	}
	for i := range c.reached {
		c.reached[i] = false
	}
	c.in[0] = append(c.in[0][:0], init...)
	c.reached[0] = true
	c.work = append(c.work[:0], 0)

	flow := func(succ int, st []aval) {
		if !c.reached[succ] {
			c.in[succ] = append(c.in[succ][:0], st...)
			c.reached[succ] = true
			c.work = append(c.work, succ)
			return
		}
		changed := false
		dst := c.in[succ]
		for i := range dst {
			j := aJoin(dst[i], st[i])
			if j != dst[i] {
				dst[i] = j
				changed = true
			}
		}
		if changed {
			c.work = append(c.work, succ)
		}
	}

	for len(c.work) > 0 {
		l := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		st := append(c.st[:0], c.in[l]...)
		c.st = st
		pc := l
		for {
			in := code[pc]
			certStep(in, st, nd)
			switch in.Op {
			case opJMP:
				flow(int(in.A), st)
			case opJZ, opJNZ:
				flow(int(in.A), st)
				flow(pc+1, st)
			case opBARRIER:
				flow(pc+1, st)
			case opRET:
			default:
				if pc+1 < n && wg.leader[pc+1] {
					flow(pc+1, st)
				} else if pc+1 < n {
					pc++
					continue
				}
			}
			break
		}
	}

	// Index forms at every recorded access, captured before the accessing
	// instruction executes (a load may overwrite its own index register).
	if c.accV == nil {
		c.accV = make(map[int]aval)
	} else {
		clear(c.accV)
	}
	want := make(map[int]int32)
	for ri := range wg.regions {
		for _, a := range wg.regions[ri].accs {
			want[a.pc] = a.idxReg
		}
	}
	for l := 0; l < n; l++ {
		if !wg.leader[l] || !c.reached[l] {
			continue
		}
		st := append(c.st[:0], c.in[l]...)
		c.st = st
		for pc := l; pc == l || (pc < n && !wg.leader[pc]); pc++ {
			if reg, ok := want[pc]; ok {
				c.accV[pc] = st[reg]
			}
			certStep(code[pc], st, nd)
		}
	}

	for ri := range wg.regions {
		if !k.wgCheckRegion(c, &wg.regions[ri], nd) {
			return false
		}
	}
	return true
}

// wgCheckRegion verifies one region: for every stored-to object, all stores
// and loads use one identical affine index whose lid part is injective over
// the group's local grid.
func (k *Kernel) wgCheckRegion(c *wgCert, r *wgRegion, nd NDRange) bool {
	for i := range r.accs {
		s := &r.accs[i]
		if !s.store {
			continue
		}
		sv, ok := c.accV[s.pc]
		if !ok {
			continue // unreachable under this launch: never executes
		}
		if sv.top {
			return false
		}
		// Every other access (load or store) to the same object in this
		// region must use the identical form.
		for j := range r.accs {
			o := &r.accs[j]
			if o.local != s.local || o.slot != s.slot || i == j {
				continue
			}
			ov, ok := c.accV[o.pc]
			if !ok {
				continue
			}
			if ov.top || ov.c != sv.c {
				return false
			}
		}
		if !lidInjective(c, sv, nd) {
			return false
		}
	}
	return true
}

// lidInjective reports whether v's lid-coefficients map every local id of
// the group to a distinct value (brute force over the local grid; group
// sizes are small and the result is cached with the certificate).
func lidInjective(c *wgCert, v aval, nd NDRange) bool {
	nWI := nd.WorkItemsPerGroup()
	if nWI <= 1 {
		return true
	}
	vals := c.vals[:0]
	for z := 0; z < nd.LocalSize[2]; z++ {
		for y := 0; y < nd.LocalSize[1]; y++ {
			for x := 0; x < nd.LocalSize[0]; x++ {
				vals = append(vals, v.c[1]*int64(x)+v.c[2]*int64(y)+v.c[3]*int64(z))
			}
		}
	}
	c.vals = vals
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] {
			return false
		}
	}
	return true
}

// certStep is the abstract transfer function over integer registers for one
// instruction, mirroring the interpreter's concrete semantics.
func certStep(in Instr, st []aval, nd NDRange) {
	switch in.Op {
	case opLDI:
		st[in.A] = aConst(in.IImm)
	case opIMOV:
		st[in.A] = st[in.B]
	case opIADD:
		st[in.A] = aAdd(st[in.B], st[in.C], 1)
	case opISUB:
		st[in.A] = aAdd(st[in.B], st[in.C], -1)
	case opIMUL:
		st[in.A] = aMul(st[in.B], st[in.C])
	case opIDIV:
		if st[in.B].isConst() && st[in.C].isConst() && st[in.C].c[0] != 0 {
			st[in.A] = aConst(st[in.B].c[0] / st[in.C].c[0])
		} else {
			st[in.A] = aTop()
		}
	case opIMOD:
		if st[in.B].isConst() && st[in.C].isConst() && st[in.C].c[0] != 0 {
			st[in.A] = aConst(st[in.B].c[0] % st[in.C].c[0])
		} else {
			st[in.A] = aTop()
		}
	case opINEG:
		st[in.A] = aMul(st[in.B], aConst(-1))
	case opILT, opILE, opIGT, opIGE, opIEQ, opINE:
		if st[in.B].isConst() && st[in.C].isConst() {
			st[in.A] = aConst(b2i(intCmpFn(in.Op)(st[in.B].c[0], st[in.C].c[0])))
		} else {
			st[in.A] = aTop()
		}
	case opNOTB:
		if st[in.B].isConst() {
			st[in.A] = aConst(b2i(st[in.B].c[0] == 0))
		} else {
			st[in.A] = aTop()
		}
	case opFLT, opFLE, opFGT, opFGE, opFEQ, opFNE, opF2I, opLDGI, opLDLI, opLDPI:
		st[in.A] = aTop()
	case opGID:
		if d := st[in.B]; d.isConst() && d.c[0] >= 0 && d.c[0] <= 2 {
			var v aval
			v.c[1+d.c[0]] = 1
			v.c[4+d.c[0]] = int64(nd.LocalSize[d.c[0]])
			st[in.A] = v
		} else if d := st[in.B]; d.isConst() {
			st[in.A] = aConst(0) // out-of-range dim reads 0
		} else {
			st[in.A] = aTop()
		}
	case opLID:
		if d := st[in.B]; d.isConst() && d.c[0] >= 0 && d.c[0] <= 2 {
			var v aval
			v.c[1+d.c[0]] = 1
			st[in.A] = v
		} else if d := st[in.B]; d.isConst() {
			st[in.A] = aConst(0)
		} else {
			st[in.A] = aTop()
		}
	case opGRP:
		if d := st[in.B]; d.isConst() && d.c[0] >= 0 && d.c[0] <= 2 {
			var v aval
			v.c[4+d.c[0]] = 1
			st[in.A] = v
		} else if d := st[in.B]; d.isConst() {
			st[in.A] = aConst(0)
		} else {
			st[in.A] = aTop()
		}
	case opNGR:
		if d := st[in.B]; d.isConst() {
			if d.c[0] >= 0 && d.c[0] <= 2 {
				st[in.A] = aConst(int64(nd.NumGroups[d.c[0]]))
			} else {
				st[in.A] = aConst(1)
			}
		} else {
			st[in.A] = aTop()
		}
	case opLSZ:
		if d := st[in.B]; d.isConst() {
			if d.c[0] >= 0 && d.c[0] <= 2 {
				st[in.A] = aConst(int64(nd.LocalSize[d.c[0]]))
			} else {
				st[in.A] = aConst(1)
			}
		} else {
			st[in.A] = aTop()
		}
	case opGSZ:
		if d := st[in.B]; d.isConst() {
			if d.c[0] >= 0 && d.c[0] <= 2 {
				st[in.A] = aConst(int64(nd.NumGroups[d.c[0]] * nd.LocalSize[d.c[0]]))
			} else {
				st[in.A] = aConst(1)
			}
		} else {
			st[in.A] = aTop()
		}
	case opGOFF:
		st[in.A] = aConst(0)
	case opWDIM:
		st[in.A] = aConst(int64(nd.Dims))
	case opIMIN:
		if st[in.B].isConst() && st[in.C].isConst() {
			st[in.A] = aConst(min(st[in.B].c[0], st[in.C].c[0]))
		} else {
			st[in.A] = aJoin(st[in.B], st[in.C]) // equal forms: min is that form
		}
	case opIMAX:
		if st[in.B].isConst() && st[in.C].isConst() {
			st[in.A] = aConst(max(st[in.B].c[0], st[in.C].c[0]))
		} else {
			st[in.A] = aJoin(st[in.B], st[in.C])
		}
	case opIABS:
		if st[in.B].isConst() {
			v := st[in.B].c[0]
			if v < 0 {
				v = -v
			}
			st[in.A] = aConst(v)
		} else {
			st[in.A] = aTop()
		}
	}
}
