package harness

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"fluidicl/internal/core"
	"fluidicl/internal/sched"
	"fluidicl/internal/sim"
)

// renderWith runs one experiment with the given number of concurrent table
// cells and returns the rendered table.
func renderWith(t *testing.T, id string, parallel int) string {
	t.Helper()
	r := NewRunner()
	r.Quick = true
	r.Parallel = parallel
	tab, err := r.Run(id)
	if err != nil {
		t.Fatalf("%s (parallel=%d): %v", id, parallel, err)
	}
	return tab.String()
}

// TestExperimentsDeterministicAcrossWorkers is the determinism regression
// test: every virtual-time table must render identically whether its cells
// run sequentially on one host worker or concurrently on several.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	ids := []string{"fig13"}
	if !testing.Short() {
		ids = []string{"fig2", "fig3", "table1", "table2", "fig13", "fig14"}
	}
	for _, id := range ids {
		seq := renderWith(t, id, 1)
		par := renderWith(t, id, 4)
		if seq != par {
			t.Errorf("%s: table differs between sequential and parallel cells\n--- parallel=1 ---\n%s\n--- parallel=4 ---\n%s", id, seq, par)
		}
	}
}

// outputHash digests a run's output buffers in name order.
func outputHash(outputs map[string][]byte) string {
	names := make([]string, 0, len(outputs))
	for n := range outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s:%d:", n, len(outputs[n]))
		h.Write(outputs[n])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFluidiCLOutputsByteIdenticalAcrossWorkers hashes the actual result
// buffers of full FluidiCL runs (the cooperative CPU+GPU path, aborts,
// rollbacks and merges included) run alone and run as concurrent host
// workers sharing the benchmark's compiled kernels, the way parallel table
// cells do.
func TestFluidiCLOutputsByteIdenticalAcrossWorkers(t *testing.T) {
	r := NewRunner()
	r.Quick = true
	const workers = 3
	for _, b := range r.benchmarks() {
		run := func() (string, sim.Time, error) {
			res, err := sched.RunFluidiCL(r.M, b.App, core.Options{})
			if err != nil {
				return "", 0, err
			}
			if err := b.Verify(res.Outputs); err != nil {
				return "", 0, err
			}
			return outputHash(res.Outputs), res.Time, nil
		}
		seqHash, seqTime, err := run()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		hashes := make([]string, workers)
		times := make([]sim.Time, workers)
		err = parallelFor(workers, workers, func(i int) (err error) {
			hashes[i], times[i], err = run()
			return err
		})
		if err != nil {
			t.Fatalf("%s (concurrent): %v", b.Name, err)
		}
		for i := range hashes {
			if hashes[i] != seqHash {
				t.Errorf("%s: worker %d output buffers differ from the lone run", b.Name, i)
			}
			if times[i] != seqTime {
				t.Errorf("%s: worker %d virtual time %v, lone run %v", b.Name, i, times[i], seqTime)
			}
		}
		if t.Failed() {
			break
		}
	}
}
