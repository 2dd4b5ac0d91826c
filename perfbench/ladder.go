package main

import (
	"fmt"
	"net/http"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/partition"
	"gminer/internal/server"
	"gminer/internal/trace"
)

// ladderReps is how many times each ladder rung runs each app.
const ladderReps = 5

// rung is one step of the ladder: the same problem answered one layer
// further up the stack.
type rung struct {
	Rung   string  `json:"rung"`
	App    string  `json:"app"`
	Median float64 `json:"median_ms"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

func (g rung) metricName() string { return "ladder." + g.Rung + "." + g.App + "_ms" }

func (r *run) addRung(name, app string, xs []float64) {
	r.ladder = append(r.ladder, rung{Rung: name, App: app, Median: median(xs), Spread: spread(xs), N: len(xs)})
}

// ladderPass answers tc and gm on the batch-heavy graph at every layer:
// CSR build, compiled plan, engine-free algo.SeqRun, a 1x1 session, the
// WxT session, an in-process server and the multi-process cluster. Each
// rung's median and spread are reported, so the engine's overhead over a
// plain single-threaded compute of the same problem is visible per layer.
// The pass also gives every per-layer metric a value on workloads that do
// not exercise that layer, including a short mutation probe for the
// dynamic-graph layers.
func (r *run) ladderPass() error {
	lr := &run{
		workload: "ladder", seed: r.seed, traced: true, shape: r.shape,
		binDir: r.binDir, workDir: r.workDir, sp: r.sp, off: r.off, obs: samples{},
	}
	r.ladderRun = lr
	root := r.sp.begin("ladder", "", 0)
	defer r.sp.end(root)
	g := heavyGraph(r.seed)
	ladderApps := []string{"tc", "gm"}

	stage := r.sp.begin("ladder kernels+plan+seq", "", root)
	if err := lr.kernelLayers(g, ladderReps); err != nil {
		return err
	}
	r.addRung("csr", "all", lr.obs["kernels.csr_build_ms"])
	r.addRung("plan", "tc", lr.obs["plan.tc_ms"])
	r.addRung("plan", "gm", lr.obs["plan.gm_ms"])
	want, err := lr.oracle(g, ladderReps)
	if err != nil {
		return err
	}
	for _, app := range ladderApps {
		r.addRung("seq", app, lr.obs["algo.seq_ms."+app])
	}

	r.sp.end(stage)

	// Sessions: one worker with one thread, then the workloads' shape.
	stage = r.sp.begin("ladder sessions", "", root)
	for _, sh := range []shape{{1, 1}, r.shape} {
		name := "session_1x1"
		if sh != (shape{1, 1}) {
			name = "session_wxt"
		}
		sess, err := cluster.NewSession(g, clusterConfig(sh))
		if err != nil {
			return fmt.Errorf("ladder session: %w", err)
		}
		for _, app := range apps {
			var lat []float64
			for i := 0; i <= ladderReps; i++ {
				o, got, err := lr.localJob(sess, specFor(app, 0), r.sp, trace.New(sh.Workers+1, 0).Enable())
				if err != nil {
					sess.Close()
					return err
				}
				if !r.tally.check("ladder "+name+" "+app, want[app], got) || i == 0 {
					continue // the first job of each app warms the session
				}
				lat = append(lat, o.LatencyMS)
				if name == "session_wxt" {
					lr.jobs = append(lr.jobs, o)
				}
			}
			if app != "cd" {
				r.addRung(name, app, lat)
			}
		}
		sess.Close()
	}

	r.sp.end(stage)

	// In-process server: distinct specs compute; one repeat per app is
	// answered by the result cache.
	stage = r.sp.begin("ladder served", "", root)
	s, err := lr.startInproc(g, clusterConfig(r.shape), specFor("tc", -1), "setup")
	if err != nil {
		return err
	}
	tag := int64(0)
	for _, app := range apps {
		var lat []float64
		for i := 0; i <= ladderReps; i++ {
			tag++
			id := fmt.Sprintf("ladder-%d", tag)
			o, got, err := s.cl.servedJob(specFor(app, tag), id, r.sp)
			if err != nil {
				s.close()
				return err
			}
			if r.tally.check("ladder served "+app, want[app], got) && i > 0 {
				lat = append(lat, o.LatencyMS)
				lr.jobs = append(lr.jobs, o)
			}
		}
		o, got, err := s.cl.servedJob(specFor(app, tag), fmt.Sprintf("ladder-%d-repeat", tag), r.sp)
		if err != nil {
			s.close()
			return err
		}
		if r.tally.check("ladder served repeat "+app, want[app], got) {
			lr.jobs = append(lr.jobs, o)
		}
		if app != "cd" {
			r.addRung("served", app, lat)
		}
	}
	byJob, err := s.cl.jobCounters()
	s.close()
	if err != nil {
		return err
	}
	attachCounters(lr.jobs, byJob)
	r.sp.end(stage)

	// Multi-process cluster.
	stage = r.sp.begin("ladder multiproc", "", root)
	path, err := lr.writeGraph(g, "ladder")
	if err != nil {
		return err
	}
	pc, err := lr.startProcCluster(path, server.JobRequest{Spec: specFor("tc", -1), ID: "setup"})
	if err != nil {
		return err
	}
	for _, app := range ladderApps {
		var lat []float64
		for i := 0; i <= ladderReps; i++ {
			tag++
			o, got, err := pc.cl.servedJob(specFor(app, tag), fmt.Sprintf("ladder-%d", tag), r.sp)
			if err != nil {
				pc.stop()
				return err
			}
			if r.tally.check("ladder multiproc "+app, want[app], got) && i > 0 {
				lat = append(lat, o.LatencyMS)
			}
		}
		r.addRung("multiproc", app, lat)
	}
	pc.stop()
	r.sp.end(stage)
	stage = r.sp.begin("ladder mutation probe", "", root)
	defer r.sp.end(stage)
	return r.mutationProbe(lr)
}

// mutationProbe posts a few mutation batches to a dynamic in-process
// server on the batch-heavy graph holding standing tc and cd, so the
// dynamic-graph layers have a value on every workload.
func (r *run) mutationProbe(lr *run) error {
	const batches = 5
	g := heavyGraph(r.seed)
	stream := gen.Deltas(heavyGraph(r.seed), gen.DeltasConfig{Batches: batches, Ops: mutationOps, Seed: derive(r.seed, 60)})
	cfg := clusterConfig(r.shape)
	cfg.Dynamic = true
	cfg.Partitioner = partition.Blocked{}
	probe := &run{traced: true, shape: r.shape, sp: r.sp, off: r.off, obs: samples{}}
	s, err := probe.startInproc(g, cfg, specFor("tc", -1), "setup")
	if err != nil {
		return err
	}
	defer s.close()
	for _, app := range []string{"tc", "cd"} {
		if err := s.cl.standing(app); err != nil {
			return err
		}
	}
	for i, b := range stream {
		var res server.MutationResult
		t0 := time.Now()
		var err error
		r.sp.do("POST /graph/mutations", fmt.Sprintf("probe-%d", i), 0, func() {
			err = s.cl.do(http.MethodPost, "/graph/mutations", b, &res, http.StatusOK)
		})
		if err != nil {
			return fmt.Errorf("probe batch %d: %w", i, err)
		}
		lr.obs.add("dyngraph.apply_ms", res.ApplySeconds*1000)
		lr.obs.add("dyngraph.rebuilt_workers", float64(len(res.RebuiltWorkers)))
		lr.obs.add("dyngraph.moved_blocks", float64(res.MovedBlocks))
		lr.obs.add("server.standing_ms", ms(time.Since(t0))-res.ApplySeconds*1000)
	}
	return nil
}
