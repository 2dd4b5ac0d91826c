// Command perfbench is the repository's benchmark: it runs one named
// workload against the public entry points of the mining system, checks
// every answer against an oracle computed outside the timed window, and
// prints every metric by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, after building with perfbench/run.sh):
//
//	perfbench --workload batch-heavy --seed 1 --seconds 40 --trace 0
//
// Workloads: batch-heavy, served-mix, mutate-standing, multiproc (see
// perfbench/README.md for why each exists). --trace 0 reports the
// end-to-end metrics; --trace 1 is the separate traced run that reports
// the per-layer metrics, performs the ladder pass and writes its spans to
// --work-dir. --heldout replaces --seed with the held-out seed, which is
// kept for re-checking a claim on inputs nobody tuned against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// heldOutSeed is never used while writing or tuning a change; a claimed
// gain is re-checked on it with --heldout.
const heldOutSeed = 7_777_013

var workloads = map[string]func(*run) error{
	"batch-heavy":     batchHeavy,
	"served-mix":      servedMix,
	"mutate-standing": mutateStanding,
	"multiproc":       multiproc,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: batch-heavy, served-mix, mutate-standing or multiproc")
		seed     = flag.Int64("seed", 1, "input seed: the same seed generates the same graphs, specs and mutation stream")
		heldout  = flag.Bool("heldout", false, "use the held-out seed instead of --seed")
		seconds  = flag.Int("seconds", 40, "length of the measured window")
		traceOn  = flag.Int("trace", 0, "1 = traced run: per-layer metrics, ladder pass and spans")
		binDir   = flag.String("bin-dir", ".bench_build/bin", "directory holding the gminerd and gminer-worker binaries")
		workDir  = flag.String("work-dir", ".bench_build/perfbench", "directory for generated graph files and span output")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *heldout {
		*seed = heldOutSeed
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	r := newRun(*workload, *seed, *seconds, *traceOn == 1, *binDir, *workDir)
	r.note("workload=%s seed=%d heldout=%t seconds=%d trace=%t", r.workload, r.seed, *heldout, *seconds, r.traced)
	r.note("nproc=%d GOMAXPROCS=%d go=%s engine=%dx%d (workers x threads)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), r.shape.Workers, r.shape.Threads)

	err := fn(r)
	if err == nil && r.traced {
		err = r.ladderPass()
	}
	attempted, failed, wrong, firstErr := r.tally.snapshot()
	if err != nil {
		fatalf("%s: %v", r.workload, err)
	}

	r.noteSteal()
	var metrics map[string]metric
	if r.traced {
		metrics = r.tracedMetrics()
	} else if metrics, err = r.endToEnd(); err != nil {
		fatalf("%s: %v", r.workload, err)
	}

	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	fmt.Printf("# attempted=%d failed=%d wrong_answers=%d failed_frac=%.6f\n",
		attempted, failed, wrong, float64(failed)/float64(max(attempted, 1)))
	if firstErr != nil {
		fmt.Printf("# first failure: %v\n", firstErr)
	}
	for _, name := range sortedNames(metrics) {
		m := metrics[name]
		fmt.Printf("%-30s %14.6g %-9s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	if r.traced {
		if err := r.writeTrace(metrics); err != nil {
			fatalf("%v", err)
		}
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wrong == 0, max(attempted, 1), failed, metrics}
	buf, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(buf))
	if wrong > 0 {
		os.Exit(1)
	}
}

// tracedMetrics is every per-layer metric: what the workload measured
// itself, and for layers it does not exercise, the ladder pass's value.
func (r *run) tracedMetrics() map[string]metric {
	own := r.perLayer()
	var fallback map[string]metric
	if r.ladderRun != nil {
		fallback = r.ladderRun.perLayer()
	}
	out := map[string]metric{}
	for _, d := range layerDefs {
		if m, ok := own[d.name]; ok {
			out[d.name] = m
			continue
		}
		if m, ok := fallback[d.name]; ok {
			out[d.name] = m
			r.fromLadder = append(r.fromLadder, d.name)
			continue
		}
		r.note("warning: %s was not measured", d.name)
	}
	for _, g := range r.ladder {
		out[g.metricName()] = metric{g.Median, "ms", g.N}
	}
	if len(r.fromLadder) > 0 {
		r.note("from the ladder pass (not exercised by %s): %s", r.workload, strings.Join(r.fromLadder, " "))
	}
	return out
}

// writeTrace writes the traced run's spans, their self times, the ladder
// rungs and the per-layer metrics to the work directory.
func (r *run) writeTrace(metrics map[string]metric) error {
	list := r.sp.snapshot()
	doc := struct {
		Notes      []string          `json:"notes"`
		Metrics    map[string]metric `json:"metrics"`
		FromLadder []string          `json:"from_ladder"`
		Ladder     []rung            `json:"ladder"`
		SelfTimes  []selfTime        `json:"self_times"`
		Spans      []span            `json:"spans"`
	}{r.notes, metrics, r.fromLadder, r.ladder, selfTimes(list), list}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	path := filepath.Join(r.workDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans: %d written to %s\n", len(list), path)
	fmt.Println("# self time by span (ms): name count total self")
	for _, st := range selfTimes(list) {
		fmt.Printf("#   %-24s %6d %12.3f %12.3f\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	fmt.Println("# ladder (batch-heavy graph): rung app median_ms spread n")
	for _, g := range r.ladder {
		fmt.Printf("#   %-16s %-3s %12.3f %8.3f %3d\n", g.Rung, g.App, g.Median, nanToZero(g.Spread), g.N)
	}
	return nil
}

func nanToZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
