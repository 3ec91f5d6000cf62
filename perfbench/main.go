// Command perfbench is the repository benchmark. It runs one seeded
// workload from a single process with a single closed-loop client, times
// only calls into the layers' public functions, checks every output, and
// prints one JSON result as its last line:
//
//	perfbench -workload apps-full -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics of an untraced run;
// with -trace 1 it holds the per-layer metrics of a separate traced run.
// README.md says why each workload exists and what each metric should move.
//
// The load is one client because the program's counters are process
// globals (vm.BackendSnapshot, core.CounterSnapshot, trace.GlobalSnapshot):
// a delta taken around a call is attributable to that call only while
// nothing else runs beside it. Host parallelism inside a call (harness
// cells, vm workers) is the program's own, at its defaults.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"

	"fluidicl/internal/vm"
)

// passStats is what one pass over a workload's op list produced.
type passStats struct {
	ops    []float64 // host seconds of each timed op, in op order
	allocs uint64    // heap bytes allocated inside the timed ops
	failed int
	// virt is the simulated time of the pass in ms, summed in op order so
	// that it repeats bit for bit.
	virt float64
	// exact holds counts and simulated quantities that are pure functions
	// of the inputs; every pass must reproduce them exactly.
	exact map[string]float64
}

func newPass() *passStats { return &passStats{exact: map[string]float64{}} }

// op records one timed op and its outcome.
func (ps *passStats) op(sec float64, alloc uint64, err error) {
	ps.ops = append(ps.ops, sec)
	ps.allocs += alloc
	if err != nil {
		ps.fail(fmt.Errorf("op %d: %w", len(ps.ops)-1, err))
	}
}

// fail counts a failed check and reports the first few.
func (ps *passStats) fail(err error) {
	ps.failed++
	if ps.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// workload is one seeded op list. pass(0) is the untimed warm-up: it fills
// the program's lazy state and records the reference outputs every later
// pass is checked against. With a non-nil tracer a pass also records layer
// spans and makes the traced-only calls its layers need.
type workload interface {
	pass(p int, tr *tracer) *passStats
	// passes is how many timed passes a run of the given nominal length
	// makes. The count depends on -seconds and the pass time measured on
	// the 2-core reference host, not on the speed of the code under test,
	// so both sides of an A/B do identical work: a time-bounded loop would
	// make heap_live_mb on gen-kernels depend on speed.
	passes(seconds int) int
}

// passesFor returns how many passes of nominal seconds fill seconds, but
// at least enough for 100 op samples, so that ten lie beyond the 90th
// percentile.
func passesFor(seconds int, nominal float64, opsPerPass int) int {
	n := int(math.Ceil(float64(seconds) / nominal))
	if m := (100 + opsPerPass - 1) / opsPerPass; n < m {
		n = m
	}
	return n
}

var workloads = map[string]func(seed int64) (workload, error){
	"paper-quick": newPaperQuick,
	"apps-full":   newAppsFull,
	"gen-kernels": newGenKernels,
}

// metric is one printed result.
type metric struct{ name, unit string }

// endToEnd lists the untraced run's metrics, in print order.
var endToEnd = []metric{
	{"pass_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"heap_live_mb", "MB"},
	{"virt_ms", "sim_ms"},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "paper-quick, apps-full or gen-kernels")
	seed := flag.Int64("seed", 1, "seed for the workload's op order and inputs")
	seconds := flag.Int("seconds", 30, "nominal measured time; sets the pass count")
	traced := flag.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory the traced run writes its spans to")
	flag.Parse()

	// Both sides of an A/B must measure the program's defaults, so the
	// engine knobs are never set here and their environment overrides are
	// refused.
	for _, v := range []string{"FLUIDICL_BACKEND", "FLUIDICL_WG_FUSE"} {
		if _, ok := os.LookupEnv(v); ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s is set; unset it to measure the program's defaults\n", v)
			return 2
		}
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	fmt.Printf("# workload=%s seed=%d trace=%d backend=%v workers=%d gomaxprocs=%d go=%s\n",
		*name, *seed, *traced, vm.DefaultBackend(), vm.Workers(), runtime.GOMAXPROCS(0), runtime.Version())

	w, err := mk(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	su, err := measureSetup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	passes := w.passes(*seconds)

	c := &checker{ref: w.pass(0, nil)}
	c.add(0, c.ref, false)
	var out map[string]float64
	list := endToEnd
	if *traced == 0 {
		out = untracedRun(w, passes, c, su)
	} else {
		list = perLayer
		out, err = tracedRun(w, passes, c, su, *spansDir, fmt.Sprintf("%s-seed%d", *name, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]value{}}
	for _, m := range list {
		res.Metrics[m.name] = value{out[m.name], m.unit}
	}
	fmt.Printf("# fail_frac=%g\n", float64(c.failed)/float64(c.attempted))
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if c.failed > 0 {
		return 1
	}
	return 0
}

// checker counts attempted and failed ops, and fails a pass whose exact
// values differ from the reference pass: the simulator is deterministic,
// so any difference is a bug, not noise.
type checker struct {
	ref, tracedRef    *passStats
	attempted, failed int
}

func (c *checker) add(p int, ps *passStats, traced bool) {
	c.attempted += len(ps.ops)
	c.failed += ps.failed
	if d := exactDiff(c.ref, ps, false); d != "" {
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %s differs from the warm-up pass\n", p, d)
		c.failed++
	}
	if !traced {
		return
	}
	// Traced passes record traced-only counts as well; those must agree
	// with the first traced pass.
	if c.tracedRef == nil {
		c.tracedRef = ps
	} else if d := exactDiff(c.tracedRef, ps, true); d != "" {
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %s differs from the first traced pass\n", p, d)
		c.failed++
	}
}

// exactDiff names the first value of ref that ps does not reproduce bit for
// bit; with all set, keys only ps has count as differences too.
func exactDiff(ref, ps *passStats, all bool) string {
	if math.Float64bits(ref.virt) != math.Float64bits(ps.virt) {
		return fmt.Sprintf("virt_ms (%v vs %v)", ps.virt, ref.virt)
	}
	for k, v := range ref.exact {
		if got, ok := ps.exact[k]; !ok || math.Float64bits(got) != math.Float64bits(v) {
			return fmt.Sprintf("%s (%v vs %v)", k, got, v)
		}
	}
	if all {
		for k := range ps.exact {
			if _, ok := ref.exact[k]; !ok {
				return k
			}
		}
	}
	return ""
}

// untracedRun makes the timed passes and computes the end-to-end metrics.
func untracedRun(w workload, passes int, c *checker, su *setupResult) map[string]float64 {
	var passSec, ops []float64
	var allocs uint64
	for p := 1; p <= passes; p++ {
		ps := w.pass(p, nil)
		c.add(p, ps, false)
		passSec = append(passSec, sum(ps.ops))
		ops = append(ops, ps.ops...)
		allocs += ps.allocs
	}
	// The forced GCs are outside every timed window; the second one frees
	// what sync.Pool caches kept alive through the first.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	p90, beyond := percentile(ops, 0.90)
	fmt.Printf("# passes=%d op_samples=%d beyond_p90=%d pass_s=%.3f\n", passes, len(ops), beyond, passSec)
	p50, _ := percentile(ops, 0.50)
	return map[string]float64{
		"pass_s":          median(passSec),
		"op_ms_p50":       p50 * 1e3,
		"op_ms_p90":       p90 * 1e3,
		"setup_s":         su.seconds,
		"alloc_mb_per_op": float64(allocs) / float64(len(ops)) / 1e6,
		"heap_live_mb":    float64(ms.HeapAlloc) / 1e6,
		"virt_ms":         c.ref.virt,
	}
}

// heapAllocs reads the process's cumulative heap allocation without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timed runs fn as one timed op under an "op" span: it returns fn's host
// seconds and the heap bytes it allocated, and reports a panic as an
// error. Only fn's body is inside the timed window.
func timed(tr *tracer, op int, fn func() error) (sec float64, alloc uint64, err error) {
	a0 := heapAllocs()
	s := tr.begin("op", op)
	t0 := now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		err = fn()
	}()
	sec = now() - t0
	tr.end(s)
	return sec, heapAllocs() - a0, err
}
