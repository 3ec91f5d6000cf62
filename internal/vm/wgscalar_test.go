package vm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Tests for the lockstep engine's group-uniform fast paths: the scalar
// register file (wgscalar.go) and the shifted-column locality fold
// (foldCol). Every kernel runs wg against interp on buffers and Stats with
// fusion on and off (runFoldParity), once with the scalar file and once
// all-banked.

// runScalarParity runs runFoldParity with the scalar register file enabled
// and disabled, and returns the scalar-step and shifted-fold counter deltas
// of the enabled run (fused and unfused legs together).
func runScalarParity(t *testing.T, src, name string, nd NDRange, mk func() []Arg) (scalarSteps, foldShifted int64) {
	t.Helper()
	defer wgNoScalar.Store(false)
	for _, off := range []bool{true, false} {
		wgNoScalar.Store(off)
		before := BackendSnapshot()
		runFoldParity(t, src, name, nd, mk)
		after := BackendSnapshot()
		if off {
			if d := after.WGScalarSteps - before.WGScalarSteps; d != 0 {
				t.Fatalf("%d scalar steps ran with the scalar file disabled", d)
			}
			continue
		}
		scalarSteps = after.WGScalarSteps - before.WGScalarSteps
		foldShifted = after.WGFoldShifted - before.WGFoldShifted
	}
	return scalarSteps, foldShifted
}

func intBuf(n int, f func(i int) int32) []byte {
	buf := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(f(i)))
	}
	return buf
}

// TestWGScalarBankedWriteInvalidates: u starts group-uniform (a scalar
// step computes m*2), then a banked load overwrites it with per-item
// values. The iadd after it is scalar-eligible, so a load that failed to
// invalidate u would let it read the stale uniform copy.
func TestWGScalarBankedWriteInvalidates(t *testing.T) {
	const src = `
__kernel void inval(__global float* a, __global int* b, int m, int n) {
    int i = get_global_id(0);
    int u = m * 2;
    int w = u + 1;
    u = b[i];
    int v = u + 3 + w;
    a[i] = (float)v;
}
`
	const n = 64
	nd := NewNDRange1D(2*n, n)
	mk := func() []Arg {
		return []Arg{
			BufArg(make([]byte, 8*n)),
			BufArg(intBuf(2*n, func(i int) int32 { return int32(i*5 - 40) })),
			IntArg(9), IntArg(2 * n),
		}
	}
	if steps, _ := runScalarParity(t, src, "inval", nd, mk); steps == 0 {
		t.Fatal("no step ran on the scalar file")
	}
}

// TestWGScalarFusedWriteInvalidates: the multiply-accumulate loop body is
// region-fused, and the fused closure advances the loop counter in its
// bank. The loop test after it is scalar-eligible, so a fused block that
// failed to invalidate the counter would test a frozen copy and spin.
func TestWGScalarFusedWriteInvalidates(t *testing.T) {
	const src = `
__kernel void mac(__global float* a, __global float* b, __global float* c, float alpha, int m, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int k = 0; k < m; k++) {
        acc += alpha * b[i * m + k] * c[k * n + i];
    }
    a[i] = acc;
}
`
	const n, m = 64, 12
	k := MustCompile(src, "mac")
	if len(k.wg.fused) == 0 {
		t.Fatal("the loop body was not region-fused")
	}
	nd := NewNDRange1D(2*n, n)
	mk := func() []Arg {
		return []Arg{
			BufArg(make([]byte, 8*n)),
			BufArg(floatBuf(2*n*m, func(i int) float32 { return float32(i%11) * 0.5 })),
			BufArg(floatBuf(2*n*m, func(i int) float32 { return float32(i%7) - 3 })),
			FloatArg(1.5), IntArg(m), IntArg(2 * n),
		}
	}
	if steps, _ := runScalarParity(t, src, "mac", nd, mk); steps == 0 {
		t.Fatal("no step ran on the scalar file")
	}
}

// TestWGScalarStaleFlushedAtPartition: u and w are computed on the scalar
// file and never written to their banks while the phase is uniform. The
// i%3 branch partitions the group, and both arms read them in banked steps
// on partial sets, which only see the banks if the partition flushed them.
func TestWGScalarStaleFlushedAtPartition(t *testing.T) {
	const src = `
__kernel void stale(__global float* a, __global float* b, int m, int n) {
    int i = get_global_id(0);
    int u = m + 7;
    int w = u * 3;
    float s = b[i];
    if (i % 3 == 0) {
        s += (float)(w * i);
    } else {
        s -= (float)(u - i);
    }
    a[i] = s;
}
`
	const n = 64
	nd := NewNDRange1D(2*n, n)
	mk := func() []Arg {
		return []Arg{
			BufArg(make([]byte, 8*n)),
			BufArg(floatBuf(2*n, func(i int) float32 { return float32(i) * 0.25 })),
			IntArg(5), IntArg(2 * n),
		}
	}
	if steps, _ := runScalarParity(t, src, "stale", nd, mk); steps == 0 {
		t.Fatal("no step ran on the scalar file")
	}
	// White-box: the flush leaves nothing stale once the phase diverged.
	k := MustCompile(src, "stale")
	sc := &wgScratch{}
	args := mk()
	if ok, rej := k.wgCertified(&sc.cert, nd, args); !ok {
		t.Fatalf("launch not certified: %v", rej)
	}
	if _, err := k.execWGLockstep(nd, nd.GroupAt(0), args, ExecOpts{}, sc); err != nil {
		t.Fatal(err)
	}
	if m := sc.wm; m.uniform || m.is|m.fs != 0 {
		t.Fatalf("phase ended uniform=%v stale=%#x/%#x; want a flushed partition", m.uniform, m.is, m.fs)
	}
}

// TestWGScalarBarrierAfterDivergedPhase: the first phase writes u on half
// the items only, so u must reach the second phase invalid even though the
// group re-joins at the barrier and runs full again; the loop counter of
// the second phase is uniform and runs on the scalar file.
func TestWGScalarBarrierAfterDivergedPhase(t *testing.T) {
	const src = `
__kernel void rejoin(__global float* a, __global float* b, int m, int n) {
    __local float tmp[64];
    int l = get_local_id(0);
    int g = get_global_id(0);
    int u = m + 1;
    if (l % 2 == 0) {
        u = m + 2 + l;
    }
    tmp[l] = b[g];
    barrier(CLK_LOCAL_MEM_FENCE);
    int w = u * 3;
    float s = 0.0f;
    for (int k = 0; k < m; k++) {
        s += tmp[(l + k) % 64];
    }
    a[g] = s + (float)w;
}
`
	const n = 64
	nd := NewNDRange1D(2*n, n)
	mk := func() []Arg {
		return []Arg{
			BufArg(make([]byte, 8*n)),
			BufArg(floatBuf(2*n, func(i int) float32 { return float32(i%9) - 4 })),
			IntArg(6), IntArg(2 * n),
		}
	}
	if steps, _ := runScalarParity(t, src, "rejoin", nd, mk); steps == 0 {
		t.Fatal("no step ran on the scalar file")
	}
}

// TestWGScalarNaNAndDimRange: NaN compares, NaN-to-int conversion and
// out-of-range launch-query dimensions, all evaluated on uniform operands
// and so on the scalar file; the branches on them are scalar branches.
func TestWGScalarNaNAndDimRange(t *testing.T) {
	const src = `
__kernel void edges(__global float* a, __global int* o, float z, int d, int n) {
    int i = get_global_id(0);
    float q = z / z;
    int c = 0;
    if (q < 1.0f) { c += 1; }
    if (q >= 1.0f) { c += 2; }
    if (q == q) { c += 4; }
    if (q != q) { c += 8; }
    c += (int)q;
    c += get_num_groups(d) * 16 + get_local_size(d + 1) * 256;
    c += get_global_size(d - 5) * 4096 + get_group_id(d + 7) * 65536;
    c += get_num_groups(d - 3) + get_local_size(0) * 3 + get_work_dim();
    o[i] = c;
    a[i] = (q == q) ? q : -1.0f;
}
`
	const n = 64
	nd := NewNDRange1D(2*n, n)
	for _, tc := range []struct {
		z float64
		d int64
	}{{0, 3}, {0, -1}, {2, 0}, {-2, 5}} {
		mk := func() []Arg {
			return []Arg{BufArg(make([]byte, 8*n)), BufArg(make([]byte, 8*n)), FloatArg(tc.z), IntArg(tc.d), IntArg(2 * n)}
		}
		if steps, _ := runScalarParity(t, src, "edges", nd, mk); steps == 0 {
			t.Fatalf("z=%v d=%d: no step ran on the scalar file", tc.z, tc.d)
		}
	}
}

// TestWGScalarWideKernelStaysBanked: a kernel with more than 64 float
// registers does not fit the validity masks, so it gets no plan and runs
// all-banked — still in lockstep and still identical to interp.
func TestWGScalarWideKernelStaysBanked(t *testing.T) {
	var b strings.Builder
	b.WriteString("__kernel void wide(__global float* a, __global float* src, int m, int n) {\n")
	b.WriteString("    int i = get_global_id(0);\n    float v0 = src[i];\n")
	const nv = 70
	for j := 1; j < nv; j++ {
		fmt.Fprintf(&b, "    float v%d = v%d * 0.5f + (float)%d;\n", j, j-1, j)
	}
	b.WriteString("    float s = 0.0f;\n    for (int k = 0; k < m; k++) {\n        s += v0")
	for j := 1; j < nv; j++ {
		fmt.Fprintf(&b, " + v%d", j)
	}
	b.WriteString(";\n    }\n    a[i] = s;\n}\n")
	src := b.String()
	k := MustCompile(src, "wide")
	if k.NumF <= 64 {
		t.Fatalf("kernel has %d float registers; want more than 64", k.NumF)
	}
	if k.buildScalarPlan() != nil {
		t.Fatal("a kernel wider than the masks got a scalar plan")
	}
	const n = 64
	nd := NewNDRange1D(2*n, n)
	mk := func() []Arg {
		return []Arg{
			BufArg(make([]byte, 8*n)),
			BufArg(floatBuf(2*n, func(i int) float32 { return float32(i%5) * 0.125 })),
			IntArg(3), IntArg(2 * n),
		}
	}
	if steps, _ := runScalarParity(t, src, "wide", nd, mk); steps != 0 {
		t.Fatalf("%d scalar steps ran on a kernel without a plan", steps)
	}
}

// TestWGFoldShiftedColumns runs loads whose columns are shifted (b walks
// rows, c walks words, x is one word for the whole group), unshifted
// (d's stride depends on the item) and first in their phase, and requires
// the interpreter's locality stats with the shifted path taken.
func TestWGFoldShiftedColumns(t *testing.T) {
	const src = `
__kernel void cols(__global float* a, __global float* b, __global float* c, __global float* x, int m, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < m; j++) {
        s += b[j * n + i] * c[i * m + j];
        s += x[j];
        s += b[(i * j) % n];
    }
    a[i] = s;
}
`
	const n, m = 64, 20
	nd := NewNDRange1D(2*n, n)
	mk := func() []Arg {
		return []Arg{
			BufArg(make([]byte, 8*n)),
			BufArg(floatBuf(2*n*m, func(i int) float32 { return float32(i%13) * 0.25 })),
			BufArg(floatBuf(2*n*m, func(i int) float32 { return float32(i%5) - 2 })),
			BufArg(floatBuf(m, func(i int) float32 { return float32(i) })),
			IntArg(m), IntArg(2 * n),
		}
	}
	if _, shifted := runScalarParity(t, src, "cols", nd, mk); shifted == 0 {
		t.Fatal("no column took the shifted fold")
	}
}

// TestWGFoldShiftedAfterFlush: the int load through the affine
// superinstruction records per item (it has no columnar path), so it
// leaves columnar mode before any loop runs, so every column of the loop after it is folded by
// the transposed phase-end replay (replayFast) — and those are shifted.
func TestWGFoldShiftedAfterFlush(t *testing.T) {
	const src = `
__kernel void late(__global float* a, __global int* idx, __global float* b, int m, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    int k = m - 1;
    int q = idx[i * m + k];
    for (int j = 0; j < m; j++) { s += b[q + j]; }
    a[i] = s;
}
`
	const n, m = 64, 24
	nd := NewNDRange1D(2*n, n)
	mk := foldArgs(2*n, m, true, 0)
	if _, shifted := runScalarParity(t, src, "late", nd, mk); shifted == 0 {
		t.Fatal("no column took the shifted fold")
	}
	k := MustCompile(src, "late")
	if colMode, uniform := foldState(t, k, nd, mk()); colMode || !uniform {
		t.Fatalf("phase ended colMode=%v uniform=%v; want the transposed replay", colMode, uniform)
	}
}

// TestWGFoldColMatchesTracker drives foldCol directly with a hand-made
// column sequence — first columns, shifts by a word, by a far stride, by
// zero and backwards, an unshifted permutation, a constant column — and
// compares its totals and stride state with the memTracker fed the same
// accesses in the interpreter's per-item order.
func TestWGFoldColMatchesTracker(t *testing.T) {
	for _, n := range []int{1, 31, 64, 100} {
		r := rand.New(rand.NewSource(int64(n)))
		base := make([]int32, n)
		for x := range base {
			base[x] = int32(4 * (2*x + 1000))
		}
		perm := make([]int32, n)
		for x, p := range r.Perm(n) {
			perm[x] = int32(4 * (p + 3000))
		}
		shift := func(c []int32, d int32) []int32 {
			out := make([]int32, len(c))
			for x := range c {
				out[x] = c[x] + d
			}
			return out
		}
		konst := make([]int32, n)
		for x := range konst {
			konst[x] = 400
		}
		type colRec struct {
			id      int32
			col     []int32
			shifted bool
		}
		c1 := shift(base, 4)
		c2 := shift(c1, 4096)
		c3 := shift(c2, 0)
		c4 := shift(c3, -8)
		cols := []colRec{
			{0, base, false}, {1, konst, false},
			{0, c1, true}, {1, shift(konst, 4), true},
			{0, c2, true}, {0, c3, true}, {0, c4, true},
			{0, perm, n == 1}, {0, shift(perm, 12), true},
		}
		var want Stats
		tr := newMemTracker(2)
		for x := 0; x < n; x++ {
			first := x%warpSize == 0
			tr.nextWI(first)
			for _, c := range cols {
				tr.access(c.id, c.col[x], first, &want)
			}
		}
		var got Stats
		m := &wmach{n: n, st: &got, lastB: make([]int32, 2*n), seenM: make([]bool, 2), warpM: make([]int64, 2)}
		var wantShifted int64
		for _, c := range cols {
			m.foldCol(c.id, append([]int32(nil), c.col...))
			if c.shifted {
				wantShifted++
			}
		}
		if got != want {
			t.Fatalf("n=%d: foldCol stats %+v, tracker %+v", n, got, want)
		}
		if m.foldShifted != wantShifted {
			t.Fatalf("n=%d: %d columns took the shifted fold, want %d", n, m.foldShifted, wantShifted)
		}
		// The tracker keeps the last item's stride state.
		for id := int32(0); id < 2; id++ {
			if got, want := m.lastB[int(id)*n+n-1], tr.last[id]; got != want {
				t.Fatalf("n=%d: lastB[%d][%d] = %d, tracker %d", n, id, n-1, got, want)
			}
		}
	}
}

// TestWGScalarPlanMatchesSteps builds the scalar plan of random kernels
// and of the fold kernels: it panics if its segmentation ever disagrees
// with the wg block lowering, which would pair steps with foreign plans.
func TestWGScalarPlanMatchesSteps(t *testing.T) {
	srcs := map[string]string{"longloop": foldLongLoopSrc, "halfrec": foldRecSrc, "phases": foldBarrierSrc}
	for name, src := range srcs {
		if k := MustCompile(src, name); k.wg != nil && k.buildScalarPlan() == nil {
			t.Fatalf("%s: no scalar plan", name)
		}
	}
	for seed := 0; seed < 200; seed++ {
		src := GenProgram(rand.New(rand.NewSource(int64(seed))))
		k := MustCompile(src, "diff")
		if k.wg == nil {
			continue
		}
		p := k.buildScalarPlan()
		for pc, blk := range k.wg.blocks {
			if blk == nil {
				continue
			}
			for i, sp := range p.blockSteps(blk, false) {
				if sp.pc0 < int32(pc) || sp.pc1 > int32(blk.body) || sp.pc0 >= sp.pc1 {
					t.Fatalf("seed %d: block %d step %d covers [%d,%d)", seed, pc, i, sp.pc0, sp.pc1)
				}
			}
		}
	}
}
