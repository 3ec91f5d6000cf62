package vm

import (
	"encoding/binary"
	"testing"

	"fluidicl/internal/clc"
)

// Regression tests for the streamed locality fold (wgexec.go): the wg
// engine folds each uniform access column into the stats as the log fills,
// and a phase that leaves columnar mode replays only its per-item suffix on
// top of the banked stride state. Every case must give the interpreter's
// Stats and buffers, fused and unfused, and RefExec's buffers wherever the
// oracle runs the kernel (it rejects barriers).

// foldLongLoopSrc runs a long uniform loop whose trip count then diverges:
// items with i%4 == 0 leave at j == m, the rest keep going — so the phase
// partitions mid-loop and the same static loads continue per item after
// the folded prefix (warp occurrence indices and stride state must carry).
const foldLongLoopSrc = `
__kernel void longloop(__global float* a, __global float* b, __global float* c, int m, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    int lim = m + (i % 4) * 3;
    for (int j = 0; j < lim; j++) {
        s += b[j * n + i];
        s += c[i * lim + j];
    }
    a[i] = s;
}
`

// foldRecSrc leaves columnar mode without partitioning: the int load
// through the affine superinstruction has no full-group fast path, so it
// records per item (recAcc) halfway through a uniform phase; the loop after
// it replays transposed, and the trailing branch then partitions the phase.
const foldRecSrc = `
__kernel void halfrec(__global float* a, __global int* idx, __global float* b, int m, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < m; j++) { s += b[j * n + i]; }
    int k = m - 1;
    int q = idx[i * m + k];
    for (int j = 0; j < m; j++) { s += b[q + j]; }
    if (i % 3 == 0) {
        for (int j = 0; j < m; j++) { s += b[j * n + q]; }
    }
    a[i] = s;
}
`

// foldBarrierSrc reuses the same static loads in every phase (the barriers
// sit inside the loop). The b[g * m + k] load walks each item's own row one
// word per phase: the interpreter counts it random every time (stride state
// is per phase), so stride state leaking across a phase boundary would
// turn it sequential.
const foldBarrierSrc = `
__kernel void phases(__global float* a, __global float* b, int m, int n) {
    __local float tmp[64];
    int l = get_local_id(0);
    int g = get_global_id(0);
    float s = 0.0f;
    for (int k = 0; k < m; k++) {
        s += b[g * m + k];
        for (int j = 0; j < 4; j++) { s += b[(k * 4 + j) * n + g]; }
        tmp[l] = s;
        barrier(CLK_LOCAL_MEM_FENCE);
        s += tmp[63 - l];
        if (l % 5 == 0) { s += b[k * n + g]; }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    a[g] = s;
}
`

func foldArgs(n, m int, ints bool, extra int) func() []Arg {
	return func() []Arg {
		a := make([]byte, 4*n)
		b := floatBuf(n*(4*m+16), func(i int) float32 { return float32(i%13) * 0.25 })
		args := []Arg{BufArg(a)}
		if ints {
			idx := make([]byte, 4*n*m)
			for i := 0; i < n*m; i++ {
				binary.LittleEndian.PutUint32(idx[4*i:], uint32((i*7)%(n*m)))
			}
			args = append(args, BufArg(idx))
		}
		args = append(args, BufArg(b))
		for i := 0; i < extra; i++ {
			args = append(args, BufArg(floatBuf(n*(m+12), func(i int) float32 { return float32(i%7) - 3 })))
		}
		return append(args, IntArg(int64(m)), IntArg(int64(n)))
	}
}

// foldState runs group 0 of the launch on the lockstep engine against a
// private scratch and reports how its last phase ended.
func foldState(t *testing.T, k *Kernel, nd NDRange, args []Arg) (colMode, uniform bool) {
	t.Helper()
	sc := &wgScratch{}
	if ok, rej := k.wgCertified(&sc.cert, nd, args); !ok {
		t.Fatalf("launch not certified for the lockstep engine: %v", rej)
	}
	if _, err := k.execWGLockstep(nd, nd.GroupAt(0), args, ExecOpts{}, sc); err != nil {
		t.Fatal(err)
	}
	return sc.wm.colMode, sc.wm.uniform
}

// runFoldParity checks wg against interp (Stats and buffers) and, for
// barrier-free kernels, RefExec (buffers), with fusion on and off.
func runFoldParity(t *testing.T, src, name string, nd NDRange, mkArgs func() []Arg) {
	t.Helper()
	ki, err := clc.FindKernelInfo(src, name)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Compile(ki)
	if err != nil {
		t.Fatal(err)
	}
	if k.wg == nil {
		t.Fatal("wg compilation rejected the kernel")
	}
	bufsOf := func(args []Arg) string {
		var s string
		for _, a := range args {
			if a.Kind == ArgBuffer {
				s += string(a.Buf)
			}
		}
		return s
	}
	iArgs := mkArgs()
	stI, err := k.ExecLaunch(nd, iArgs, ExecOpts{Backend: BackendInterp})
	if err != nil {
		t.Fatal(err)
	}
	if !ki.HasBarrier {
		ref, err := NewRefExec(ki)
		if err != nil {
			t.Fatal(err)
		}
		rArgs := mkArgs()
		if err := ref.ExecLaunch(nd, rArgs); err != nil {
			t.Fatal(err)
		}
		if bufsOf(rArgs) != bufsOf(iArgs) {
			t.Fatal("interp buffers differ from RefExec")
		}
	}
	defer SetWGFuse(WGFuseEnabled())
	for _, fuse := range []bool{true, false} {
		SetWGFuse(fuse)
		before := BackendSnapshot()
		wArgs := mkArgs()
		stW, err := k.ExecLaunch(nd, wArgs, ExecOpts{Backend: BackendWG})
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		after := BackendSnapshot()
		if got, want := after.WGLoopWGs-before.WGLoopWGs, int64(nd.LaunchGroups()); got != want {
			t.Fatalf("fuse=%v: %d of %d work-groups ran on the lockstep engine", fuse, got, want)
		}
		if stW != stI {
			t.Fatalf("fuse=%v: Stats diverge:\ninterp: %+v\nwg:     %+v", fuse, stI, stW)
		}
		if bufsOf(wArgs) != bufsOf(iArgs) {
			t.Fatalf("fuse=%v: buffers differ between interp and wg", fuse)
		}
	}
}

func TestWGFoldLongLoopThenPartition(t *testing.T) {
	const n, m = 64, 40
	nd := NewNDRange1D(n*2, n)
	mk := foldArgs(2*n, m, false, 1)
	runScalarParity(t, foldLongLoopSrc, "longloop", nd, mk)
	k := MustCompile(foldLongLoopSrc, "longloop")
	if colMode, uniform := foldState(t, k, nd, mk()); colMode || uniform {
		t.Fatalf("phase ended colMode=%v uniform=%v; want a mid-phase partition", colMode, uniform)
	}
}

func TestWGFoldForcedPerItemRecording(t *testing.T) {
	const n, m = 64, 24
	nd := NewNDRange1D(n*2, n)
	mk := foldArgs(2*n, m, true, 0)
	runScalarParity(t, foldRecSrc, "halfrec", nd, mk)

	// Without the trailing branch the phase stays uniform after leaving
	// columnar mode: the transposed replay of the suffix.
	noBranch := `
__kernel void halfrec(__global float* a, __global int* idx, __global float* b, int m, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < m; j++) { s += b[j * n + i]; }
    int k = m - 1;
    int q = idx[i * m + k];
    for (int j = 0; j < m; j++) { s += b[q + j]; }
    a[i] = s;
}
`
	runScalarParity(t, noBranch, "halfrec", nd, mk)
	k := MustCompile(noBranch, "halfrec")
	if colMode, uniform := foldState(t, k, nd, mk()); colMode || !uniform {
		t.Fatalf("phase ended colMode=%v uniform=%v; want per-item recording in a uniform phase", colMode, uniform)
	}
}

func TestWGFoldMultiPhaseBarrier(t *testing.T) {
	const n, m = 64, 6
	nd := NewNDRange1D(n*2, n)
	mk := foldArgs(2*n, m, false, 0)
	runScalarParity(t, foldBarrierSrc, "phases", nd, mk)
	// Cross-check the barrier kernel's buffers on the closure engine too,
	// since RefExec cannot run it.
	k := MustCompile(foldBarrierSrc, "phases")
	iArgs, cArgs := mk(), mk()
	if _, err := k.ExecLaunch(nd, iArgs, ExecOpts{Backend: BackendInterp}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecLaunch(nd, cArgs, ExecOpts{Backend: BackendClosure}); err != nil {
		t.Fatal(err)
	}
	if string(iArgs[0].Buf) != string(cArgs[0].Buf) {
		t.Fatal("closure output differs from interp")
	}
}

// TestWGFoldBoundedLogAllocs is the allocation guard: as the loop trip count
// scales 16x, warm launches stay allocation-free and the columnar log never
// holds more than the widest jam's columns.
func TestWGFoldBoundedLogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const src = `
__kernel void scale(__global float* a, __global float* b, __global float* c, int m, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < m; j++) {
        s += b[j * n + i] * c[j * n + i];
    }
    a[i] = s;
}
`
	// The dot-product jam (wgfuse.go) reserves the most columns at once.
	const widestJam = 4
	const n = 64
	k := MustCompile(src, "scale")
	nd := NewNDRange1D(2*n, n)
	defer SetWGFuse(WGFuseEnabled())
	for _, fuse := range []bool{true, false} {
		SetWGFuse(fuse)
		for _, m := range []int{64, 256, 1024} {
			args := []Arg{
				BufArg(make([]byte, 8*n)),
				BufArg(floatBuf(2*n*m, func(i int) float32 { return float32(i % 5) })),
				BufArg(floatBuf(2*n*m, func(i int) float32 { return float32(i % 3) })),
				IntArg(int64(m)), IntArg(int64(2 * n)),
			}
			run := func() {
				if _, err := k.ExecLaunch(nd, args, ExecOpts{Backend: BackendWG}); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(10, run); avg != 0 {
				t.Errorf("fuse=%v m=%d: warm ExecLaunch allocates %.1f allocs/op", fuse, m, avg)
			}
			sc := &wgScratch{}
			if _, err := k.execWG(nd, nd.GroupAt(0), args, ExecOpts{Backend: BackendWG}, sc); err != nil {
				t.Fatal(err)
			}
			if c := cap(sc.wm.colBuf); c > widestJam*n {
				t.Errorf("fuse=%v m=%d: cap(colBuf) = %d, want <= %d", fuse, m, c, widestJam*n)
			}
		}
	}
}
