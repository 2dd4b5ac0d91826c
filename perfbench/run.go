package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gminer/internal/graph"
)

// counters are the engine's per-job work counters, summed over workers.
type counters struct {
	Stolen, Hits, Misses, Msgs, Bytes float64
}

// jobObs is one completed job as the benchmark saw it.
type jobObs struct {
	App         string
	ID          string
	LatencyMS   float64 // submit to result
	SubmitMS    float64 // Launch call or POST /jobs round trip
	LaunchMS    float64 // engine launch (in-process: the Launch call)
	ElapsedMS   float64 // the engine's own mining time
	QueueMS     float64 // admission-queue wait (served jobs)
	BusyS       float64 // busy thread-seconds summed over workers
	Tasks       int64
	Cached      bool
	Served      bool
	Polls       int
	Traced      bool
	TaskRoundUS float64 // tracer task_round p50 (NaN when absent)
	PullRTTMS   float64 // tracer pull_rtt p50 (NaN when absent)
	counters
	hasCounters bool
}

// samples collects named measurements across a run.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// run is the state of one benchmark invocation: its provenance, the
// measurements it collects and the operations it attempted.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	shape    shape
	binDir   string
	workDir  string

	sp  *spans // the run's spans (recording only when traced)
	off *spans // a never-recording sink for untraced work in traced runs

	obs     samples
	jobs    []jobObs  // measured, correct jobs
	writes  []float64 // state-changing request latencies, ms
	elapsed time.Duration
	tally   tally
	rssMB   []float64 // VmHWM summed over each measured process cluster
	notes   []string  // provenance and settings, printed and written out

	refused int // submissions the server turned away
	// This process's heap allocation and CPU time inside measured windows.
	allocBytes    uint64
	gcCPU, allCPU float64
	// Host CPU jiffies inside measured windows, and how many of them the
	// hypervisor gave to other guests.
	stealTicks, hostTicks float64
	ladder                []rung
	ladderRun             *run     // the ladder pass's own measurements
	fromLadder            []string // per-layer metrics taken from it
}

func newRun(workload string, seed int64, seconds int, traced bool, binDir, workDir string) *run {
	return &run{
		workload: workload,
		seed:     seed,
		window:   time.Duration(seconds) * time.Second,
		traced:   traced,
		shape:    engineShape(),
		binDir:   binDir,
		workDir:  workDir,
		sp:       newSpans(traced),
		off:      newSpans(false),
		obs:      samples{},
	}
}

// reps picks a repetition count: untraced runs only need answers, traced
// runs also want medians.
func (r *run) reps(untraced, traced int) int {
	if r.traced {
		return traced
	}
	return untraced
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) graphInfo(g *graph.Graph) {
	r.note("graph: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
}

// segments is how many freshly set-up systems batch-heavy, served-mix and
// multiproc divide their window across, each on its own generated graph.
// One set-up's luck (which process gets which slot, where the heap is in
// its GC cycle) and one graph's luck (which labels its hubs drew) shift
// every job they run, so a median over six systems and graphs is
// steadier than one system measured six times as long.
const segments = 6

// measure runs fn as (part of) the measured window: it adds the window's
// length and this process's allocation and CPU time over it.
func (r *run) measure(fn func()) {
	s0, h0, ok0 := cpuTicks()
	a := sampleProc()
	t0 := time.Now()
	fn()
	r.elapsed += time.Since(t0)
	b := sampleProc()
	if s1, h1, ok1 := cpuTicks(); ok0 && ok1 {
		r.stealTicks += s1 - s0
		r.hostTicks += h1 - h0
	}
	r.allocBytes += b.totalAlloc - a.totalAlloc
	r.gcCPU += b.gcCPU - a.gcCPU
	r.allCPU += b.allCPU - a.allCPU
}

// measuredSegment reports whether set-up i of setupReps also carries a
// measured segment: the last `segments` set-ups do.
func measuredSegment(i int) bool { return i >= setupReps-segments }

// segmentOf is the graph set-up i runs on: set-ups before the measured
// ones use the first segment's graph.
func segmentOf(i int) int { return max(0, i-(setupReps-segments)) }

// segmentSeed is the input seed of segment k of a run with seed seed.
func segmentSeed(seed int64, k int) int64 { return derive(seed, int64(1000+k)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// endToEnd derives the user-visible metrics from an untraced run.
func (r *run) endToEnd() (map[string]metric, error) {
	lat := make([]float64, 0, len(r.jobs))
	for _, o := range r.jobs {
		lat = append(lat, o.LatencyMS)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job completed correctly")
	}
	if len(r.writes) == 0 {
		return nil, fmt.Errorf("no write completed")
	}
	out := map[string]metric{}
	out["setup_s"] = metric{median(r.obs["setup_s"]), "s", len(r.obs["setup_s"])}
	out["job_p50_ms"] = metric{median(lat), "ms", len(lat)}
	out["job_p95_ms"] = metric{r.p95("job_p95_ms", lat), "ms", len(lat)}
	out["jobs_per_s"] = metric{float64(len(lat)) / r.elapsed.Seconds(), "1/s", len(lat)}
	out["write_p50_ms"] = metric{median(r.writes), "ms", len(r.writes)}
	out["write_p90_ms"] = metric{percentile(r.writes, 90), "ms", len(r.writes)}
	attempted, failed, _, _ := r.tally.snapshot()
	out["success_frac"] = metric{1 - float64(failed)/float64(max(attempted, 1)), "fraction", attempted}
	rss, err := vmHWM(0)
	if err != nil {
		return nil, err
	}
	if len(r.rssMB) > 0 {
		// The median cluster: one cluster's heap phase at shutdown moves its
		// high-water mark by a third.
		rss += median(r.rssMB)
	}
	out["peak_rss_mb"] = metric{rss, "MiB", 1 + len(r.rssMB)}
	return out, nil
}

// noteSteal records how much of the machine's CPU time other guests of
// the host took during the measured window: the first thing to check when
// two runs of the same code disagree.
func (r *run) noteSteal() {
	if r.hostTicks > 0 {
		r.note("host steal: %.1f%% of CPU time in the measured window went to other guests", 100*r.stealTicks/r.hostTicks)
	}
}

// p95 returns the 95th percentile of xs and notes when fewer than minTail
// samples lie beyond it, naming the highest percentile that has them.
func (r *run) p95(name string, xs []float64) float64 {
	v, ok := p95(xs)
	if !ok {
		p, tv, _ := tailPercentile(xs)
		r.note("warning: %s has %d of %d samples beyond it (< %d); the highest percentile with %d beyond is p%.0f = %.6g",
			name, beyond(xs, 95), len(xs), minTail, minTail, p, tv)
	}
	return v
}

// layerDefs lists every per-layer metric with its unit, in report order.
var layerDefs = []struct{ name, unit string }{
	{"kernels.csr_build_ms", "ms"},
	{"plan.tc_ms", "ms"},
	{"plan.gm_ms", "ms"},
	{"algo.seq_ms.tc", "ms"},
	{"algo.seq_ms.gm", "ms"},
	{"algo.seq_ms.cd", "ms"},
	{"partition.ms", "ms"},
	{"partition.edge_cut", "fraction"},
	{"cluster.job_ms.tc", "ms"},
	{"cluster.job_ms.gm", "ms"},
	{"cluster.job_ms.cd", "ms"},
	{"cluster.overhead_x.tc", "x"},
	{"cluster.overhead_x.gm", "x"},
	{"cluster.overhead_x.cd", "x"},
	{"cluster.launch_ms", "ms"},
	{"cluster.idle_ms", "ms"},
	{"cluster.busy_frac", "fraction"},
	{"cluster.tasks_per_s", "1/s"},
	{"cluster.stolen_per_job", "count"},
	{"cluster.task_round_p50_us", "us"},
	{"cluster.remote_join_s", "s"},
	{"cache.hit_ratio", "fraction"},
	{"transport.msgs_per_job", "count"},
	{"transport.kb_per_job", "KiB"},
	{"transport.pull_rtt_p50_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.polls_per_job", "count"},
	{"server.standing_ms", "ms"},
	{"qos.cache_hit_ratio", "fraction"},
	{"qos.cached_ms", "ms"},
	{"qos.refused", "count"},
	{"dyngraph.apply_ms", "ms"},
	{"dyngraph.rebuilt_workers", "count"},
	{"dyngraph.moved_blocks", "count"},
	{"trace.overhead_frac", "fraction"},
	{"proc.alloc_mb_per_job", "MiB"},
	{"proc.gc_cpu_frac", "fraction"},
}

// perLayer derives the layer metrics this run measured itself. Layers the
// workload does not exercise are absent; the caller fills them from the
// ladder pass.
func (r *run) perLayer() map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64, n int) {
		if n > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[name] = metric{v, unit, n}
		}
	}
	for name, xs := range r.obs {
		if name == "setup_s" {
			continue
		}
		put(name, unitOf(name), median(xs), len(xs))
	}

	var traced, computed, cached []jobObs
	for _, o := range r.jobs {
		if o.Traced {
			traced = append(traced, o)
		}
	}
	for _, o := range traced {
		if o.Cached {
			cached = append(cached, o)
		} else {
			computed = append(computed, o)
		}
	}
	wt := float64(r.shape.Workers * r.shape.Threads)
	col := func(js []jobObs, f func(jobObs) float64) []float64 {
		var xs []float64
		for _, o := range js {
			if v := f(o); !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		return xs
	}
	med := func(name string, js []jobObs, f func(jobObs) float64) {
		xs := col(js, f)
		put(name, unitOf(name), median(xs), len(xs))
	}
	for _, app := range apps {
		var js []jobObs
		for _, o := range computed {
			if o.App == app {
				js = append(js, o)
			}
		}
		med("cluster.job_ms."+app, js, func(o jobObs) float64 { return o.ElapsedMS })
		if seq := r.obs["algo.seq_ms."+app]; len(seq) > 0 {
			xs := col(js, func(o jobObs) float64 { return o.ElapsedMS })
			put("cluster.overhead_x."+app, "x", median(xs)/median(seq), len(xs))
		}
	}
	med("cluster.launch_ms", computed, func(o jobObs) float64 { return o.LaunchMS })
	med("cluster.idle_ms", computed, func(o jobObs) float64 { return o.ElapsedMS - 1000*o.BusyS/wt })
	med("cluster.busy_frac", computed, func(o jobObs) float64 { return 1000 * o.BusyS / (o.ElapsedMS * wt) })
	var tasks, elapsed float64
	for _, o := range computed {
		tasks += float64(o.Tasks)
		elapsed += o.ElapsedMS / 1000
	}
	put("cluster.tasks_per_s", "1/s", tasks/elapsed, len(computed))
	med("cluster.task_round_p50_us", computed, func(o jobObs) float64 { return o.TaskRoundUS })
	med("transport.pull_rtt_p50_ms", computed, func(o jobObs) float64 { return o.PullRTTMS })

	var c counters
	nc := 0
	for _, o := range computed {
		if o.hasCounters {
			nc++
			c.Stolen += o.Stolen
			c.Hits += o.Hits
			c.Misses += o.Misses
			c.Msgs += o.Msgs
			c.Bytes += o.Bytes
		}
	}
	if nc > 0 {
		n := float64(nc)
		put("cluster.stolen_per_job", "count", c.Stolen/n, nc)
		put("transport.msgs_per_job", "count", c.Msgs/n, nc)
		put("transport.kb_per_job", "KiB", c.Bytes/1024/n, nc)
		if c.Hits+c.Misses > 0 {
			put("cache.hit_ratio", "fraction", c.Hits/(c.Hits+c.Misses), nc)
		}
	}

	var served []jobObs
	for _, o := range traced {
		if o.Served {
			served = append(served, o)
		}
	}
	if len(served) > 0 {
		var servedComputed []jobObs
		for _, o := range served {
			if !o.Cached {
				servedComputed = append(servedComputed, o)
			}
		}
		med("server.submit_ms", served, func(o jobObs) float64 { return o.SubmitMS })
		med("server.queue_wait_ms", servedComputed, func(o jobObs) float64 { return o.QueueMS })
		med("server.overhead_ms", servedComputed, func(o jobObs) float64 { return o.LatencyMS - o.ElapsedMS - o.QueueMS })
		xs := col(served, func(o jobObs) float64 { return float64(o.Polls) })
		var sum float64
		for _, x := range xs {
			sum += x
		}
		put("server.polls_per_job", "count", sum/float64(len(xs)), len(xs))
		put("qos.cache_hit_ratio", "fraction", float64(len(cached))/float64(len(served)), len(served))
		med("qos.cached_ms", cached, func(o jobObs) float64 { return o.LatencyMS })
		put("qos.refused", "count", float64(r.refused), len(served))
	}

	if r.traced {
		var on, offLat []float64
		for _, o := range r.jobs {
			if o.Traced {
				on = append(on, o.LatencyMS)
			} else {
				offLat = append(offLat, o.LatencyMS)
			}
		}
		if len(on) > 0 && len(offLat) > 0 {
			put("trace.overhead_frac", "fraction", median(on)/median(offLat)-1, len(on))
		}
	}
	if n := len(r.jobs); n > 0 && r.allCPU > 0 {
		put("proc.alloc_mb_per_job", "MiB", float64(r.allocBytes)/(1<<20)/float64(n), n)
		put("proc.gc_cpu_frac", "fraction", r.gcCPU/r.allCPU, n)
	}
	return out
}

func unitOf(name string) string {
	for _, d := range layerDefs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// sortedNames returns m's keys in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
