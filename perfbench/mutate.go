package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"gminer/internal/algo"
	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/partition"
	"gminer/internal/plan"
	"gminer/internal/server"
)

// Mutation stream settings: batches of mutationOps ops arrive on a fixed
// schedule of mutationRate per second, whatever the server's pace.
const (
	mutationRate = 8
	mutationOps  = 32
)

// snapJob is one snapshot job of mutate-standing with the epoch it ran
// at, checked against a replay of the stream after the window.
type snapJob struct {
	obs   jobObs
	epoch int64
	got   answer
}

// mutateStanding is a dynamic in-process gminerd holding a standing tc
// (exact incremental path) and a standing cd (recompute and diff) while an
// open loop posts seeded mutation batches at a fixed rate and one client
// runs snapshot tc/gm jobs in a closed loop beside it: writes beside
// reads, so a read-path gain that costs writes shows. Like the other
// workloads it measures across segments, each a fresh server on its own
// graph with its own stream.
func mutateStanding(r *run) error {
	r.note("mutation stream: open loop, %d batches/s of %d ops, timed from each batch's due time", mutationRate, mutationOps)
	cfg := clusterConfig(r.shape)
	cfg.Dynamic = true
	cfg.Partitioner = partition.Blocked{}
	if r.traced {
		g := dynGraph(segmentSeed(r.seed, 0))
		if _, err := r.oracle(g, 3); err != nil {
			return err
		}
		if err := r.kernelLayers(g, 5); err != nil {
			return err
		}
	}
	var late []float64
	for i := 0; i < setupReps; i++ {
		seed := segmentSeed(r.seed, segmentOf(i))
		g := dynGraph(seed)
		s, err := r.startInproc(g, cfg, specFor("tc", int64(-1-i)), fmt.Sprintf("setup-%d", i))
		if err != nil {
			return err
		}
		if measuredSegment(i) {
			r.graphInfo(g)
			var l []float64
			l, err = r.mutateSegment(s, seed)
			late = append(late, l...)
		}
		s.close()
		if err != nil {
			return err
		}
	}
	if len(late) > 0 {
		r.note("mutations: %d sent, generator lateness p50 %.3f ms, max %.3f ms", len(late), median(late), percentile(late, 100))
	}
	return nil
}

// mutateSegment runs one segment on server s, whose graph was built from
// seed, and checks it against a replay. It returns the generator's
// lateness per batch, in ms.
func (r *run) mutateSegment(s *inproc, seed int64) ([]float64, error) {
	// The stream is a pure function of the initial graph, so it is
	// generated from an identical build that the server never sees.
	window := r.window / segments
	n := int(float64(mutationRate)*window.Seconds()) + mutationRate
	stream := gen.Deltas(dynGraph(seed), gen.DeltasConfig{Batches: n, Ops: mutationOps, Seed: derive(seed, 50)})
	for _, app := range []string{"tc", "cd"} {
		if err := s.cl.standing(app); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	end := start.Add(window)
	var (
		wg      sync.WaitGroup
		applied []int // stream indexes the server accepted, in order
		ops     []opRecord
		results []server.MutationResult
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ops = openLoop(wallClock{}, start, end, time.Second/mutationRate, len(stream), func(i int) error {
			sp := r.off
			if r.traced && i%2 == 1 {
				sp = r.sp
			}
			var res server.MutationResult
			var err error
			sp.do("POST /graph/mutations", fmt.Sprintf("batch-%d", i), 0, func() {
				err = s.cl.do(http.MethodPost, "/graph/mutations", stream[i], &res, http.StatusOK)
			})
			if err != nil {
				r.tally.fail(fmt.Errorf("batch %d: %w", i, err))
				return err
			}
			r.tally.ok()
			applied = append(applied, i)
			results = append(results, res)
			return nil
		})
	}()

	var snaps []snapJob
	r.measure(func() {
		for k := 0; time.Now().Before(end); k++ {
			app := []string{"tc", "gm"}[k%2]
			sp := r.off
			if r.traced && (k/2)%2 == 1 {
				sp = r.sp
			}
			id := fmt.Sprintf("snap-%d", k)
			o, got, err := s.cl.servedJob(specFor(app, int64(k+1)), id, sp)
			if err != nil {
				r.tally.fail(err)
				continue
			}
			st, err := s.cl.status(id)
			if err != nil {
				r.tally.fail(err)
				continue
			}
			snaps = append(snaps, snapJob{obs: o, epoch: st.GraphEpoch, got: got})
		}
	})
	wg.Wait()
	if r.traced {
		byJob, err := s.cl.jobCounters()
		if err != nil {
			return nil, err
		}
		for i := range snaps {
			if c, ok := byJob[snaps[i].obs.ID]; ok {
				snaps[i].obs.counters, snaps[i].obs.hasCounters = c, true
			}
		}
	}

	var late []float64
	done := 0
	for i, op := range ops {
		if op.Err != nil {
			continue
		}
		res := results[done]
		done++
		r.writes = append(r.writes, ms(op.Latency()))
		late = append(late, ms(op.Lateness()))
		if r.traced && i%2 == 1 {
			r.obs.add("dyngraph.apply_ms", res.ApplySeconds*1000)
			r.obs.add("dyngraph.rebuilt_workers", float64(len(res.RebuiltWorkers)))
			r.obs.add("dyngraph.moved_blocks", float64(res.MovedBlocks))
			r.obs.add("server.standing_ms", ms(op.Done.Sub(op.Sent))-res.ApplySeconds*1000)
		}
	}

	finalTC, err := s.cl.result("standing-tc")
	if err != nil {
		return nil, err
	}
	finalCD, err := s.cl.result("standing-cd")
	if err != nil {
		return nil, err
	}
	return late, r.checkStream(seed, stream, applied, snaps, finalTC, finalCD)
}

// checkStream replays the accepted batches on a from-scratch build of the
// graph and checks every snapshot job against the graph at its epoch,
// then the standing jobs against the final graph: standing tc against
// plan.Count and standing cd against a snapshot recompute.
func (r *run) checkStream(seed int64, stream []dyngraph.Batch, applied []int, snaps []snapJob, finalTC, finalCD server.JobResult) error {
	replay := dynGraph(seed)
	p := algo.FigurePattern()
	hp, err := plan.Compile(p.Labels, p.Parent)
	if err != nil {
		return fmt.Errorf("compile gm plan: %w", err)
	}
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].epoch < snaps[j].epoch })
	var epoch int64
	var want map[string]answer
	reference := func(g *graph.Graph) (map[string]answer, error) {
		csr := kernels.MustBuild(g)
		tri, err := plan.Count(csr, plan.Triangle())
		if err != nil {
			return nil, fmt.Errorf("oracle tc: %w", err)
		}
		hom, err := plan.HomCount(csr, hp)
		if err != nil {
			return nil, fmt.Errorf("oracle gm: %w", err)
		}
		return map[string]answer{"tc": {Agg: formatAgg(tri)}, "gm": {Agg: formatAgg(hom)}}, nil
	}
	for _, sj := range snaps {
		if sj.epoch > int64(len(applied)) {
			return fmt.Errorf("snapshot job ran at epoch %d, beyond the %d batches applied", sj.epoch, len(applied))
		}
		if want == nil || sj.epoch != epoch {
			for ; epoch < sj.epoch; epoch++ {
				dyngraph.ApplyToGraph(replay, stream[applied[epoch]])
			}
			if want, err = reference(replay); err != nil {
				return err
			}
		}
		if r.tally.check(fmt.Sprintf("mutate-standing %s at epoch %d", sj.obs.App, sj.epoch), want[sj.obs.App], sj.got) {
			r.jobs = append(r.jobs, sj.obs)
		}
	}
	for ; epoch < int64(len(applied)); epoch++ {
		dyngraph.ApplyToGraph(replay, stream[applied[epoch]])
	}
	if want, err = reference(replay); err != nil {
		return err
	}
	r.tally.check("standing tc at the final epoch", want["tc"], answer{Agg: finalTC.Aggregate})
	cd, _, err := seqReference(replay, kernels.MustBuild(replay), jobspec.Spec{App: "cd"}.Normalize())
	if err != nil {
		return err
	}
	r.tally.check("standing cd at the final epoch", answer{Records: cd.Records}, answer{Records: finalCD.Records})
	return nil
}
