package vm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"fluidicl/internal/clc"
)

// FuzzWGParity is the execution differential under native fuzzing: the
// input bytes pick a GenProgram seed, a launch shape and the scalar
// arguments, and the lockstep engine — with its scalar register file on
// and off, fused and unfused — must match the interpreter on error
// presence, Stats and every buffer byte. Launches the wg certificate
// rejects fall back per work-group and are compared all the same.
//
// Input layout (missing bytes read as zero): bytes 0-7 the little-endian
// program seed; 8 the local size (1-64); 9 the group count (1-4); 10 the
// buffer length n (1-96); 11 p1; 12 fp.
//
//	go test -run '^$' -fuzz '^FuzzWGParity$' -fuzztime 60s ./internal/vm
func FuzzWGParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var in [13]byte
		copy(in[:], data)
		seed := int64(binary.LittleEndian.Uint64(in[:8]))
		local := 1 + int(in[8])%64
		groups := 1 + int(in[9])%4
		n := 1 + int(in[10])%96
		p1 := int64(int8(in[11]))
		fp := float64(int8(in[12])) / 8

		src := GenProgram(rand.New(rand.NewSource(seed)))
		ki, err := clc.FindKernelInfo(src, "diff")
		if err != nil {
			t.Fatalf("generated program does not check: %v\n%s", err, src)
		}
		k, err := Compile(ki)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		nd := NewNDRange1D(local*groups, local)
		run := func(be Backend) ([]byte, []byte, Stats, error) {
			fb := make([]byte, 4*n)
			ib := make([]byte, 4*n)
			r := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(fb[4*i:], math.Float32bits(float32(r.Float64()*16-8)))
				binary.LittleEndian.PutUint32(ib[4*i:], uint32(int32(r.Intn(41)-20)))
			}
			st, err := k.ExecLaunch(nd,
				[]Arg{BufArg(fb), BufArg(ib), IntArg(int64(n)), IntArg(p1), FloatArg(fp)},
				ExecOpts{Backend: be})
			return fb, ib, st, err
		}
		fbI, ibI, stI, errI := run(BackendInterp)

		defer SetWGFuse(WGFuseEnabled())
		defer wgNoScalar.Store(false)
		for _, noScalar := range []bool{false, true} {
			for _, fuse := range []bool{true, false} {
				wgNoScalar.Store(noScalar)
				SetWGFuse(fuse)
				fbW, ibW, stW, errW := run(BackendWG)
				leg := "scalar"
				if noScalar {
					leg = "banked"
				}
				if (errI == nil) != (errW == nil) {
					t.Fatalf("%s fuse=%v: error disagreement: interp=%v wg=%v\n%s", leg, fuse, errI, errW, src)
				}
				if errI != nil {
					continue
				}
				if stI != stW {
					t.Fatalf("%s fuse=%v: Stats diverge:\ninterp: %+v\nwg:     %+v\n%s", leg, fuse, stI, stW, src)
				}
				if string(fbI) != string(fbW) || string(ibI) != string(ibW) {
					t.Fatalf("%s fuse=%v: buffers differ from interp\n%s", leg, fuse, src)
				}
			}
		}
	})
}
