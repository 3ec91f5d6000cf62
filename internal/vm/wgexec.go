package vm

// Lockstep whole-work-group execution.
//
// The engine keeps the work-items of one group partitioned into sets by
// current basic-block leader pc. Each iteration pops the set with the
// smallest pc (merging any sets that meet at the same block), charges the
// block against every member's step budget, runs the block's banked steps —
// each a single call that loops over the whole set against the SoA register
// banks — and then applies the terminator: fallthrough/jump move the set,
// conditional branches partition it, RET retires members, and barriers park
// them until the phase ends.
//
// Under the noninterference certificate (wgcert.go) any schedule that
// preserves each work-item's own program order produces identical buffers
// and register trajectories, so the min-pc policy is purely a locality
// heuristic. Stats come out identical to the interpreter too: every counter
// the banked steps touch is an order-independent sum, mask, or min/max —
// except the memory-locality tracker, which is order-sensitive.
//
// Group-uniform work is done once while the phase is uniform (DESIGN.md
// S21), in two places:
//
//   - Scalar register file (wgscalar.go). Registers every item holds the
//     same value for keep one scalar copy with a valid mask. A step of
//     ALU, move, immediate and launch-query ops whose inputs are all valid
//     runs once on the scalars and charges its Stats n times; its results
//     stay stale (unwritten) in the banks until a banked step reads them.
//     Banked steps, fused closures included, invalidate what they write.
//     A conditional branch on a valid scalar moves the whole set without
//     scanning the condition bank, and the first partition of a phase
//     flushes every stale scalar, so divergent sets only ever read banks.
//   - Streamed locality fold. While the phase is uniform the steps log each
//     dynamic global access as a column of n offsets and fold it into the
//     stats as the log fills (foldCol). A column that is its memID's
//     previous column shifted by one uniform delta is charged from that
//     delta and the cached warp count of the previous column, since a
//     uniform shift changes no item's stride class and no adjacent
//     difference. Once items record separately, each item's (memID, offset)
//     stream is kept in program order and the phase end replays it through
//     the ordinary memTracker in exactly the interpreter's per-item,
//     per-warp call sequence.
//
// Error parity is by presence, not by text: all engines error on the same
// launches (each item's trace, including its step budget, is identical),
// but the failing work-item the message names — and buffer contents on the
// error path — may differ because set order decides who trips first. This
// mirrors the closure backend's documented budget-pc divergence, and tests
// compare buffers only on error-free runs.

// wgAcc is one recorded global access, replayed through the memTracker at
// phase end.
type wgAcc struct {
	id  int32
	off int32
}

// wgSet is an ordered set of work-items whose next block starts at pc.
type wgSet struct {
	pc    int
	items []int32
}

// wstep executes one (possibly fused) instruction for every work-item in
// set. It returns false when execution failed; the error is in wmach.err.
type wstep func(m *wmach, set []int32) bool

// wmach is the lockstep engine's execution context: SoA register banks plus
// the per-group state the other backends keep in cmach.
type wmach struct {
	k      *Kernel
	nd     NDRange
	group  [3]int
	args   []Arg
	locals [][]byte
	tr     *memTracker
	stat   Stats
	st     *Stats
	undo   *UndoLog

	maxSteps int64
	err      error

	n  int       // work-items per group
	ib []int64   // int banks: ib[reg*n + t]
	fb []float64 // float banks: fb[reg*n + t]
	// priv[slot] holds n per-item slabs back to back; item t's slab is
	// priv[slot][t*privSz[slot] : (t+1)*privSz[slot]].
	priv   [][]byte
	privSz []int
	lid0   []int64 // local ids per item
	lid1   []int64
	lid2   []int64
	steps  []int64 // per-item step budget

	rec  [][]wgAcc // per-item (memID, off) streams since the phase left colMode
	work []*wgSet
	free []*wgSet

	// Uniform-control-flow fast paths. full is true while the set being
	// dispatched is the whole group in ascending order, letting hot steps
	// run bounds-check-free range loops; uniform is true while the current
	// phase has never partitioned, enabling the transposed tracker replay;
	// budgetScalar charges one shared step counter until the group first
	// diverges.
	full         bool
	uniform      bool
	budgetScalar bool
	stepsAll     int64
	lastB        []int32 // transposed tracker: last offset per (memID, item)
	// seenM marks the memIDs whose lastB row is valid, and warpM caches the
	// warp transactions of the column in that row (foldCol); both belong to
	// the phase and are reset at its end. Columns are folded only while
	// every item has made the same accesses, so validity is per memID.
	seenM []bool
	warpM []int64

	// Streamed columnar access log. While colMode — the phase is still
	// uniform, so every dispatch is the full group — each dynamic global
	// access is recorded as one contiguous column of n offsets
	// (colBuf[j*n:(j+1)*n], memID in colIDs[j]) instead of n per-item
	// stream appends. The next colReserve folds the completed columns into
	// the locality stats (colFold) and reuses the buffer, so the log never
	// holds more than one step's columns. colFlush folds and leaves
	// columnar mode the moment any step needs per-item recording or the
	// phase first partitions. Invariant: colMode implies rec is empty; the
	// folded prefix plus the live columns, in order, are exactly every
	// item's program-order access stream, and lastB/seenM hold each item's
	// stride state after that prefix.
	colMode bool
	colIDs  []int32
	colBuf  []int32

	// fuse selects the fused block closures (wgfuse.go) for this group;
	// resolved once at group entry from the FLUIDICL_WG_FUSE knob.
	fuse bool

	// Scalar register file (wgscalar.go): si/sf hold one copy of each
	// group-uniform register, iv/fv mark the valid copies and is/fs the
	// valid ones whose banks are stale. plan is the step plan of kernel
	// planK, built when this machine first runs it (nil: all-banked).
	si     []int64
	sf     []float64
	iv, fv uint64
	is, fs uint64
	plan   *wgPlan
	planK  *Kernel

	// Coverage tallies, added to the process counters once per group.
	scalarSteps int64
	foldShifted int64

	parked    int
	done      int
	barrierPC int
	diverged  bool
}

// release drops references to caller-owned memory so the pooled machine
// never retains buffers or stats beyond the work-group that used it.
func (m *wmach) release() {
	m.args, m.locals, m.tr, m.st = nil, nil, nil, nil
	m.undo, m.err = nil, nil
}

// wmFor returns the scratch's lockstep machine sized and zeroed for one
// work-group of k with n work-items.
func (s *wgScratch) wmFor(k *Kernel, n int) *wmach {
	if s.wm == nil {
		s.wm = &wmach{}
	}
	m := s.wm
	m.n = n
	m.ib = sizedI64(m.ib, k.NumI*n)
	m.fb = sizedF64(m.fb, k.NumF*n)
	m.steps = sizedI64(m.steps, n)
	m.lid0 = growI64(m.lid0, n)
	m.lid1 = growI64(m.lid1, n)
	m.lid2 = growI64(m.lid2, n)
	if len(m.priv) != len(k.PrivArrs) {
		m.priv = make([][]byte, len(k.PrivArrs))
		m.privSz = make([]int, len(k.PrivArrs))
	}
	for i, pa := range k.PrivArrs {
		sz := pa.Len * pa.Elem.Size()
		m.privSz[i] = sz
		tot := sz * n
		if cap(m.priv[i]) < tot {
			m.priv[i] = make([]byte, tot)
		} else {
			m.priv[i] = m.priv[i][:tot]
			clear(m.priv[i])
		}
	}
	for len(m.rec) < n {
		m.rec = append(m.rec, nil)
	}
	m.rec = m.rec[:n]
	for t := range m.rec {
		m.rec[t] = m.rec[t][:0]
	}
	m.lastB = growI32(m.lastB, k.NumMemOps*n)
	m.seenM = sizedBool(m.seenM, k.NumMemOps)
	m.warpM = growI64(m.warpM, k.NumMemOps)
	m.free = append(m.free, m.work...)
	m.work = m.work[:0]
	m.parked, m.done = 0, 0
	m.stepsAll = 0
	m.budgetScalar = true
	m.diverged = false
	m.err = nil
	return m
}

func sizedI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func sizedF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func sizedBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (m *wmach) takeSet(pc int) *wgSet {
	var s *wgSet
	if ln := len(m.free); ln > 0 {
		s = m.free[ln-1]
		m.free = m.free[:ln-1]
	} else {
		s = &wgSet{}
	}
	s.pc = pc
	s.items = s.items[:0]
	return s
}

func (m *wmach) freeSet(s *wgSet) {
	m.free = append(m.free, s)
}

// push enqueues s, merging it into an already-queued set at the same pc
// (concatenation order is irrelevant under the certificate) and dropping it
// when empty.
func (m *wmach) push(s *wgSet) {
	if len(s.items) == 0 {
		m.freeSet(s)
		return
	}
	for _, q := range m.work {
		if q.pc == s.pc {
			q.items = append(q.items, s.items...)
			m.freeSet(s)
			return
		}
	}
	m.work = append(m.work, s)
}

// popMin removes and returns the queued set with the smallest pc.
func (m *wmach) popMin() *wgSet {
	best := 0
	for i := 1; i < len(m.work); i++ {
		if m.work[i].pc < m.work[best].pc {
			best = i
		}
	}
	s := m.work[best]
	last := len(m.work) - 1
	m.work[best] = m.work[last]
	m.work[last] = nil
	m.work = m.work[:last]
	return s
}

// recAcc records one global access of item t for the phase-end tracker
// replay. Steps that record per item leave columnar mode first, so each
// stream holds exactly the item's accesses after the folded prefix.
func (m *wmach) recAcc(t int32, id, off int32) {
	if id >= 0 {
		if m.colMode {
			m.colFlush()
		}
		m.rec[t] = append(m.rec[t], wgAcc{id: id, off: off})
	}
}

// colReserve folds the completed columns into the stats and reserves k
// fresh ones at colBuf[0 : k*n]. A caller holding several column
// subslices MUST reserve them all in one call: a later reservation folds
// and reuses the buffer, so a subslice taken before it would be folded
// unfilled and then overwritten.
func (m *wmach) colReserve(k int) {
	m.colFold()
	need := k * m.n
	if cap(m.colBuf) < need {
		m.colBuf = make([]int32, need)
	} else {
		m.colBuf = m.colBuf[:need]
	}
}

// colFor reserves a new access column for one dynamic global access of
// memID id and returns its n-offset slice. Caller fills col[t] for every
// item before reserving any further column; only valid while colMode.
func (m *wmach) colFor(id int32) []int32 {
	m.colReserve(1)
	m.colIDs = append(m.colIDs, id)
	return m.colBuf[:m.n]
}

// colFor2 reserves two columns in one call so both subslices stay valid.
func (m *wmach) colFor2(id1, id2 int32) ([]int32, []int32) {
	n := m.n
	m.colReserve(2)
	m.colIDs = append(m.colIDs, id1, id2)
	return m.colBuf[:n], m.colBuf[n : 2*n]
}

// colFold folds every logged column into SeqBytes, RandBytes and
// WarpTransactions and empties the log. The phase is uniform, so the j-th
// column is the same dynamic access — one memID, one occurrence index — of
// every item's (identical, static) sequence. The CPU stride stats depend
// only on each item's own stream (banked lastB/seenM state), and the warp
// comparison of item t's occ-th access against item t-1's reduces to
// comparing adjacent offsets of the column — so one pass per column
// computes the memTracker's exact totals with no occurrence bookkeeping
// and no per-memID offset lists.
func (m *wmach) colFold() {
	n := m.n
	for j, id := range m.colIDs {
		m.foldCol(id, m.colBuf[j*n:j*n+n])
	}
	m.colIDs = m.colIDs[:0]
	m.colBuf = m.colBuf[:0]
}

// colFlush folds the columnar log and leaves columnar mode; the phase's
// later accesses go to the per-item rec streams.
func (m *wmach) colFlush() {
	m.colFold()
	m.colMode = false
}

// replay drives the recorded access streams through the memTracker in the
// interpreter's exact order: items ascending, each opening a warp slot,
// each stream in program order. The streams hold only the accesses after
// the folded columnar prefix, so each item's tracker starts from its banked
// stride state (lastB/seenM) and counts occurrences from 0. That is exact:
// the prefix was uniform, so every item made the same number of accesses
// per memID in it, and the warp comparison of item t's o-th suffix access
// against item t-1's o-th suffix access is the comparison the full stream
// makes at occurrence prefix+o.
func (m *wmach) replay() {
	n := m.n
	tr := m.tr
	for t := 0; t < n; t++ {
		first := t%warpSize == 0
		tr.nextWI(first)
		for id, seen := range m.seenM {
			if seen {
				tr.seen[id] = true
				tr.last[id] = m.lastB[id*n+t]
			}
		}
		for _, a := range m.rec[t] {
			tr.access(a.id, a.off, first, m.st)
		}
		m.rec[t] = m.rec[t][:0]
	}
}

// replayFast is the transposed replay for phases that never partitioned
// but left columnar mode: every item recorded the same static access
// sequence, so the j-th entries of the streams form one column (see
// colFold), gathered into the idle column buffer and folded.
func (m *wmach) replayFast() {
	n := m.n
	if n == 0 {
		return
	}
	col := growI32(m.colBuf, n)
	for j, a := range m.rec[0] {
		for t := range col {
			col[t] = m.rec[t][j].off
		}
		m.foldCol(a.id, col)
	}
	m.colBuf = col[:0]
	for t := 0; t < n; t++ {
		m.rec[t] = m.rec[t][:0]
	}
}

// foldCol folds one column of memID id — col[t] is item t's offset — into
// the locality stats, advancing the banked stride state.
//
// When the column is the memID's previous column shifted by one uniform
// delta d, every item's stride is d, and the column's adjacent differences
// — hence its warp transactions — equal the previous column's, so the
// stats come from |d| and the cached warp count instead of a per-item pass.
func (m *wmach) foldCol(id int32, col []int32) {
	n := m.n
	base := int(id) * n
	lastB := m.lastB[base : base+n]
	col = col[:n]
	st := m.st
	seen := m.seenM[id]
	if seen && shiftedCol(col, lastB) {
		d := col[0] - lastB[0]
		if d < 0 {
			d = -d
		}
		if d <= cacheLineBytes {
			st.SeqBytes += 4 * int64(n)
		} else {
			st.RandBytes += 4 * int64(n)
		}
		st.WarpTransactions += m.warpM[id]
		copy(lastB, col)
		m.foldShifted++
		return
	}
	var seq, rand, warp int64
	var prevOff int32
	for t, off := range col {
		if seen {
			d := off - lastB[t]
			if d < 0 {
				d = -d
			}
			if d <= cacheLineBytes {
				seq++
			} else {
				rand++
			}
		} else {
			rand++
		}
		lastB[t] = off
		if t%warpSize == 0 {
			warp++
		} else {
			d := off - prevOff
			if d < 0 {
				d = -d
			}
			if d > 4 {
				warp++
			}
		}
		prevOff = off
	}
	m.seenM[id] = true
	m.warpM[id] = warp
	st.SeqBytes += 4 * seq
	st.RandBytes += 4 * rand
	st.WarpTransactions += warp
}

// shiftedCol reports whether col[t] - last[t] is the same for every t.
func shiftedCol(col, last []int32) bool {
	last = last[:len(col)]
	d := col[0] - last[0]
	for t, off := range col {
		if off-last[t] != d {
			return false
		}
	}
	return true
}

// execWGLockstep executes one certified work-group on the lockstep engine.
func (k *Kernel) execWGLockstep(nd NDRange, group [3]int, args []Arg, opts ExecOpts, sc *wgScratch) (Stats, error) {
	backendCtr.wgLoopWGs.Add(1)
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	nWI := nd.WorkItemsPerGroup()
	m := sc.wmFor(k, nWI)
	m.k = k
	m.nd, m.group = nd, group
	m.args = args
	m.locals = sc.localsFor(k)
	m.tr = sc.trackerFor(k)
	m.stat = Stats{WorkGroups: 1, WorkItems: nWI}
	m.st = &m.stat
	m.undo = opts.Undo
	m.maxSteps = maxSteps
	m.fuse = WGFuseEnabled()
	if m.planK != k {
		m.plan, m.planK = k.buildScalarPlan(), k
	}
	m.scalarSteps, m.foldShifted = 0, 0

	err := m.runGroup()
	if m.scalarSteps != 0 {
		backendCtr.wgScalarSteps.Add(m.scalarSteps)
	}
	if m.foldShifted != 0 {
		backendCtr.wgFoldShifted.Add(m.foldShifted)
	}
	st := m.stat
	m.release()
	return st, err
}

// runGroup runs the whole group phase by phase until every item returns.
func (m *wmach) runGroup() error {
	k := m.k
	wg := k.wg
	n := m.n

	lx, ly := m.nd.LocalSize[0], m.nd.LocalSize[1]
	for t := 0; t < n; t++ {
		m.lid0[t] = int64(t % lx)
		m.lid1[t] = int64((t / lx) % ly)
		m.lid2[t] = int64(t / (lx * ly))
	}
	for i, p := range k.Params {
		switch p.Kind {
		case ArgInt:
			bank := m.ib[int(p.IReg)*n : int(p.IReg)*n+n]
			v := m.args[i].I
			for t := range bank {
				bank[t] = v
			}
		case ArgFloat:
			bank := m.fb[int(p.FReg)*n : int(p.FReg)*n+n]
			v := float64(float32(m.args[i].F))
			for t := range bank {
				bank[t] = v
			}
		}
	}
	plan := m.plan
	if wgNoScalar.Load() {
		plan = nil
	}
	if plan != nil {
		m.scalarReset()
	}

	entry := 0
	for {
		m.parked, m.barrierPC = 0, -1
		m.uniform = true
		m.colMode = true
		m.colIDs = m.colIDs[:0]
		m.colBuf = m.colBuf[:0]
		s := m.takeSet(entry)
		for t := 0; t < n; t++ {
			s.items = append(s.items, int32(t))
		}
		m.work = append(m.work, s)

		for len(m.work) > 0 {
			s := m.popMin()
			blk := wg.blocks[s.pc]
			m.full = m.uniform && len(s.items) == n
			if m.budgetScalar {
				if m.full {
					if m.stepsAll += blk.nInstr; m.stepsAll > m.maxSteps {
						m.err = &execError{k.Name, blk.start, "instruction budget exceeded (possible infinite loop)"}
						m.freeSet(s)
						return m.err
					}
				} else {
					// First divergent block of the group: fan the shared
					// counter out so every item keeps its exact total.
					for t := range m.steps {
						m.steps[t] = m.stepsAll
					}
					m.budgetScalar = false
				}
			}
			if !m.budgetScalar {
				for _, t := range s.items {
					if m.steps[t] += blk.nInstr; m.steps[t] > m.maxSteps {
						m.err = &execError{k.Name, blk.start, "instruction budget exceeded (possible infinite loop)"}
						m.freeSet(s)
						return m.err
					}
				}
			}
			steps := blk.steps
			fused := m.fuse && blk.fsteps != nil
			if fused {
				steps = blk.fsteps
			}
			var sps []wgStepPlan
			if plan != nil {
				sps = plan.blockSteps(blk, fused)
			}
			for i, stp := range steps {
				if sps != nil {
					sp := &sps[i]
					if m.full {
						if sp.scalar && sp.iu&^m.iv == 0 && sp.fu&^m.fv == 0 {
							m.execScalar(k.Code[sp.pc0:sp.pc1])
							m.iv |= sp.id
							m.is |= sp.id
							m.fv |= sp.fd
							m.fs |= sp.fd
							m.scalarSteps++
							continue
						}
						if im, fm := sp.iu&m.is, sp.fu&m.fs; im|fm != 0 {
							m.materialize(im, fm)
						}
					}
					m.iv &^= sp.id
					m.is &^= sp.id
					m.fv &^= sp.fd
					m.fs &^= sp.fd
				}
				if !stp(m, s.items) {
					m.freeSet(s)
					return m.err
				}
			}
			switch blk.term.kind {
			case wtFall:
				s.pc = blk.term.next
				m.push(s)
			case wtJmp:
				m.stat.Branches += int64(len(s.items))
				s.pc = blk.term.tgt
				m.push(s)
			case wtCond:
				m.stat.Branches += int64(len(s.items))
				cr := blk.term.condReg
				jz := blk.term.jz
				if m.full && plan != nil && m.iv&(1<<uint(cr)) != 0 {
					// Scalar branch: the condition is group-uniform.
					if (m.si[cr] == 0) == jz {
						s.pc = blk.term.tgt
					} else {
						s.pc = blk.term.next
					}
					m.push(s)
					break
				}
				base := int(cr) * n
				ib := m.ib
				if m.full {
					// Dynamic uniformity scan: when the whole group agrees
					// on the branch, move the set wholesale. Semantically
					// identical to partitioning into one non-empty and one
					// empty set, but skips rebuilding the item list on every
					// trip around a uniform loop.
					allZ, allNZ := true, true
					for _, v := range ib[base : base+n] {
						if v == 0 {
							allNZ = false
						} else {
							allZ = false
						}
						if !allZ && !allNZ {
							break
						}
					}
					if allZ || allNZ {
						if allZ == jz {
							s.pc = blk.term.tgt
						} else {
							s.pc = blk.term.next
						}
						m.push(s)
						break
					}
				}
				taken := m.takeSet(blk.term.tgt)
				fall := m.takeSet(blk.term.next)
				for _, t := range s.items {
					if (ib[base+int(t)] == 0) == jz {
						taken.items = append(taken.items, t)
					} else {
						fall.items = append(fall.items, t)
					}
				}
				if len(taken.items) > 0 && len(fall.items) > 0 && m.uniform {
					// First partition of the phase: divergent sets run
					// banked, so every stale scalar goes to its bank now.
					if m.colMode {
						m.colFlush()
					}
					if plan != nil {
						m.flushScalars()
					}
					m.uniform = false
				}
				m.freeSet(s)
				m.push(taken)
				m.push(fall)
			case wtRet:
				m.done += len(s.items)
				m.freeSet(s)
			case wtBarrier:
				if m.barrierPC == -1 {
					m.barrierPC = blk.term.next
				} else if m.barrierPC != blk.term.next {
					m.diverged = true
				}
				m.parked += len(s.items)
				m.freeSet(s)
			}
		}

		if m.diverged {
			m.err = &execError{k.Name, m.barrierPC, "work-items diverged to different barriers"}
			return m.err
		}
		switch {
		case m.colMode:
			m.colFold()
		case m.uniform:
			m.replayFast()
		default:
			m.replay()
		}
		// The banked stride state and the fold cache are per phase, like
		// the memTracker's (nextWI resets it for every item at each phase
		// boundary).
		clear(m.seenM)
		if m.parked == 0 {
			return nil
		}
		if m.done > 0 {
			m.err = &execError{k.Name, m.barrierPC, "barrier not reached by all work-items"}
			return m.err
		}
		m.stat.Barriers++
		entry = m.barrierPC
	}
}
