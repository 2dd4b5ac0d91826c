package main

import (
	"fmt"
	"math"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/plan"
	"gminer/internal/trace"
)

// setupReps is how many times each workload sets its system up; setup_s
// is the median, so one slow start (a GC, a noisy neighbour) does not
// move it.
const setupReps = 12

// seqReference runs spec engine-free on one thread with algo.SeqRun, with
// the same compiled kernels a session gives its jobs, and returns the
// answer and its compute time. It is both the oracle for in-process and
// multi-process jobs and the denominator of cluster.overhead_x.
func seqReference(g *graph.Graph, csr *kernels.CSR, spec jobspec.Spec) (answer, float64, error) {
	a, err := jobspec.Build(g, spec)
	if err != nil {
		return answer{}, 0, fmt.Errorf("oracle %s: %w", spec.App, err)
	}
	if kc, ok := a.(core.KernelConfigurable); ok {
		kc.ConfigureKernels(csr, false)
	}
	t0 := time.Now()
	res := algo.SeqRun(g, a)
	d := ms(time.Since(t0))
	return answer{Agg: formatAgg(res.AggGlobal), Records: res.Records}, d, nil
}

// oracle computes the reference answer of every app on g, outside any
// timed window, and records the single-thread compute times.
func (r *run) oracle(g *graph.Graph, reps int) (map[string]answer, error) {
	csr := kernels.MustBuild(g)
	want := map[string]answer{}
	for _, app := range apps {
		for i := 0; i < reps; i++ {
			var ans answer
			var d float64
			var err error
			r.sp.do("algo.SeqRun", app, 0, func() { ans, d, err = seqReference(g, csr, specFor(app, 0)) })
			if err != nil {
				return nil, err
			}
			want[app] = ans
			r.obs.add("algo.seq_ms."+app, d)
		}
	}
	return want, nil
}

// kernelLayers times the CSR build and the compiled tc and gm plans on g:
// the two rungs below the task engine.
func (r *run) kernelLayers(g *graph.Graph, reps int) error {
	var csr *kernels.CSR
	for i := 0; i < reps; i++ {
		r.sp.do("kernels.MustBuild", "", 0, func() {
			t0 := time.Now()
			csr = kernels.MustBuild(g)
			r.obs.add("kernels.csr_build_ms", ms(time.Since(t0)))
		})
	}
	p := algo.FigurePattern()
	hp, err := plan.Compile(p.Labels, p.Parent)
	if err != nil {
		return fmt.Errorf("compile gm plan: %w", err)
	}
	for i := 0; i < reps; i++ {
		var err error
		r.sp.do("plan.Count", "tc", 0, func() {
			t0 := time.Now()
			_, err = plan.Count(csr, plan.Triangle())
			r.obs.add("plan.tc_ms", ms(time.Since(t0)))
		})
		if err != nil {
			return fmt.Errorf("plan tc: %w", err)
		}
		r.sp.do("plan.HomCount", "gm", 0, func() {
			t0 := time.Now()
			_, err = plan.HomCount(csr, hp)
			r.obs.add("plan.gm_ms", ms(time.Since(t0)))
		})
		if err != nil {
			return fmt.Errorf("plan gm: %w", err)
		}
	}
	return nil
}

// localJob launches spec on sess, waits for it and returns its
// observation and answer. With a non-nil tracer the engine's phase
// histograms ride along in the result.
func (r *run) localJob(sess *cluster.Session, spec jobspec.Spec, sp *spans, tr *trace.Tracer) (jobObs, answer, error) {
	a, err := jobspec.Build(sess.Graph(), spec)
	if err != nil {
		return jobObs{}, answer{}, err
	}
	o := jobObs{App: spec.App, Traced: tr != nil}
	root := sp.begin("job", spec.App, 0)
	defer sp.end(root)
	t0 := time.Now()
	id := sp.begin("cluster.Launch", spec.App, root)
	j, err := sess.Launch(a, cluster.JobOptions{Tracer: tr})
	sp.end(id)
	o.SubmitMS = ms(time.Since(t0))
	o.LaunchMS = o.SubmitMS
	if err != nil {
		return o, answer{}, fmt.Errorf("launch %s: %w", spec.App, err)
	}
	id = sp.begin("cluster.Job.Wait", j.ID(), root)
	res, err := j.Wait()
	sp.end(id)
	o.LatencyMS = ms(time.Since(t0))
	if err != nil {
		return o, answer{}, fmt.Errorf("job %s: %w", spec.App, err)
	}
	o.fromResult(res)
	return o, answer{Agg: formatAgg(res.AggGlobal), Records: res.Records}, nil
}

// fromResult copies the engine's own counters and phase percentiles.
func (o *jobObs) fromResult(res *cluster.Result) {
	o.ElapsedMS = ms(res.Elapsed)
	o.BusyS = res.Total.Busy.Seconds()
	o.Tasks = res.Total.TasksDone
	o.counters = counters{
		Stolen: float64(res.Total.Stolen), Hits: float64(res.Total.CacheHits),
		Misses: float64(res.Total.CacheMisses), Msgs: float64(res.Total.NetMsgs),
		Bytes: float64(res.Total.NetBytes),
	}
	o.hasCounters = true
	o.phases(res.Phases)
}

func (o *jobObs) phases(ph []trace.PhaseSummary) {
	o.TaskRoundUS, o.PullRTTMS = math.NaN(), math.NaN()
	for _, p := range ph {
		switch p.Metric {
		case trace.MetricTaskRound.String():
			o.TaskRoundUS = float64(p.P50.Nanoseconds()) / 1e3
		case trace.MetricPullRTT.String():
			o.PullRTTMS = ms(p.P50)
		}
	}
}

// batchHeavy is one client in a closed loop on a warm in-process
// session, cycling tc, gm and cd on the dense graph: the compute-bound
// workload, where kernels, plans, the executor and the RCV cache do the
// work and no HTTP, admission or mutation code runs.
func batchHeavy(r *run) error {
	var graphs []*graph.Graph
	var wants []map[string]answer
	for k := 0; k < segments; k++ {
		g := heavyGraph(segmentSeed(r.seed, k))
		r.graphInfo(g)
		want, err := r.oracle(g, r.reps(1, 3))
		if err != nil {
			return err
		}
		graphs, wants = append(graphs, g), append(wants, want)
	}
	if r.traced {
		if err := r.kernelLayers(graphs[0], 5); err != nil {
			return err
		}
	}
	cfg := clusterConfig(r.shape)
	cycle := 0
	for i := 0; i < setupReps; i++ {
		k := segmentOf(i)
		sess, err := r.localSetup(graphs[k], cfg)
		if err != nil {
			return err
		}
		if measuredSegment(i) {
			err = r.batchSegment(sess, wants[k], &cycle)
		}
		sess.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// localSetup hands g to a new session and times it until the first job
// is accepted. Launch builds the CSR lazily, so that cost lands in set-up,
// where users pay it. The first job is then waited out, unmeasured.
func (r *run) localSetup(g *graph.Graph, cfg cluster.Config) (*cluster.Session, error) {
	t0 := time.Now()
	id := r.sp.begin("setup", "", 0)
	defer r.sp.end(id)
	var sess *cluster.Session
	var err error
	r.sp.do("cluster.NewSession", "", id, func() { sess, err = cluster.NewSession(g, cfg) })
	if err != nil {
		return nil, fmt.Errorf("new session: %w", err)
	}
	a, err := jobspec.Build(g, specFor("tc", 0))
	if err != nil {
		sess.Close()
		return nil, err
	}
	var j *cluster.Job
	r.sp.do("cluster.Launch", "tc", id, func() { j, err = sess.Launch(a, cluster.JobOptions{}) })
	if err != nil {
		sess.Close()
		return nil, fmt.Errorf("first launch: %w", err)
	}
	r.obs.add("setup_s", time.Since(t0).Seconds())
	r.obs.add("partition.ms", ms(sess.PartitionTime()))
	r.obs.add("partition.edge_cut", sess.EdgeCut())
	if _, err := j.Wait(); err != nil {
		sess.Close()
		return nil, fmt.Errorf("first job: %w", err)
	}
	return sess, nil
}

// batchSegment warms sess with one unmeasured cycle, then runs cycles for
// its share of the window. A traced run alternates traced and untraced
// cycles, so the two latencies trace.overhead_frac compares share
// conditions.
func (r *run) batchSegment(sess *cluster.Session, want map[string]answer, cycle *int) error {
	for _, app := range apps {
		if _, _, err := r.localJob(sess, specFor(app, 0), r.off, nil); err != nil {
			return err
		}
	}
	end := time.Now().Add(r.window / segments)
	r.measure(func() {
		for ; time.Now().Before(end); *cycle++ {
			traced := r.traced && *cycle%2 == 1
			sp := r.off
			if traced {
				sp = r.sp
			}
			for _, app := range apps {
				var tr *trace.Tracer
				if traced {
					tr = trace.New(r.shape.Workers+1, 0).Enable()
				}
				o, got, err := r.localJob(sess, specFor(app, 0), sp, tr)
				if err != nil {
					r.tally.fail(err)
					continue
				}
				if r.tally.check("batch-heavy "+app, want[app], got) {
					r.jobs = append(r.jobs, o)
					r.writes = append(r.writes, o.SubmitMS)
				}
			}
		}
	})
	return nil
}
