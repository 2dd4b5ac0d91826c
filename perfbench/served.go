package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/server"
)

// servedClients is served-mix's closed-loop client count.
const servedClients = 2

// repeatShare is the share of served-mix submissions that repeat a recent
// spec, so the result cache answers them.
const repeatShare = 0.25

// inproc is an in-process gminerd: a warm session behind server.New,
// listening on loopback.
type inproc struct {
	srv *server.Server
	cl  *client
}

func (s *inproc) close() {
	s.cl.close()
	s.srv.Shutdown() // also closes the session
}

// startInproc hands g to a new session and server and returns once the
// first job (firstSpec) is accepted: the set-up that setup_s times. The
// first job is then waited out, unmeasured.
func (r *run) startInproc(g *graph.Graph, cfg cluster.Config, firstSpec jobspec.Spec, firstID string) (*inproc, error) {
	t0 := time.Now()
	id := r.sp.begin("setup", "", 0)
	defer r.sp.end(id)
	var sess *cluster.Session
	var err error
	r.sp.do("cluster.NewSession", "", id, func() { sess, err = cluster.NewSession(g, cfg) })
	if err != nil {
		return nil, fmt.Errorf("new session: %w", err)
	}
	srv := server.New(sess, server.Config{})
	var addr string
	r.sp.do("server.Start", "", id, func() { addr, err = srv.Start("127.0.0.1:0") })
	if err != nil {
		sess.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &inproc{srv: srv, cl: newClient(addr)}
	var st server.JobStatus
	r.sp.do("POST /jobs", firstID, id, func() { st, err = s.cl.submit(server.JobRequest{Spec: firstSpec, ID: firstID}) })
	if err != nil {
		s.close()
		return nil, fmt.Errorf("first submit: %w", err)
	}
	r.obs.add("setup_s", time.Since(t0).Seconds())
	r.obs.add("partition.ms", ms(sess.PartitionTime()))
	r.obs.add("partition.edge_cut", sess.EdgeCut())
	for !terminal(st.State) {
		time.Sleep(pollInterval)
		if st, err = s.cl.status(firstID); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// sessionReference runs every app once on a fresh session outside the
// timed window: served-mix's oracle. The seed field that makes served
// specs distinct does not change what a job computes on an annotated
// graph, so one reference per app covers every served spec.
func sessionReference(g *graph.Graph, cfg cluster.Config) (map[string]answer, error) {
	sess, err := cluster.NewSession(g, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference session: %w", err)
	}
	defer sess.Close()
	want := map[string]answer{}
	for _, app := range apps {
		a, err := jobspec.Build(g, specFor(app, 0))
		if err != nil {
			return nil, err
		}
		j, err := sess.Launch(a, cluster.JobOptions{})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", app, err)
		}
		res, err := j.Wait()
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", app, err)
		}
		want[app] = answer{Agg: formatAgg(res.AggGlobal), Records: res.Records}
	}
	return want, nil
}

// servedMix is an in-process gminerd with two HTTP clients in a closed
// loop of short tc/gm/cd jobs on a community graph. Each spec is made
// distinct by its seed field; a fixed share repeats a recent spec, which
// the result cache answers. Jobs last tens of milliseconds, so master
// rounds, termination, admission and HTTP weigh more than the kernels.
func servedMix(r *run) error {
	cfg := clusterConfig(r.shape)
	var graphs []*graph.Graph
	var wants []map[string]answer
	for k := 0; k < segments; k++ {
		g := servedGraph(segmentSeed(r.seed, k))
		r.graphInfo(g)
		want, err := sessionReference(g, cfg)
		if err != nil {
			return err
		}
		graphs, wants = append(graphs, g), append(wants, want)
		if r.traced {
			if _, err := r.oracle(g, 3); err != nil {
				return err
			}
		}
	}
	if r.traced {
		if err := r.kernelLayers(graphs[0], 5); err != nil {
			return err
		}
	}
	r.note("clients=%d closed loop, repeat share %.2f, poll interval %v", servedClients, repeatShare, pollInterval)

	st := &servedState{orig: map[int64]answer{}}
	for i := 0; i < setupReps; i++ {
		k := segmentOf(i)
		s, err := r.startInproc(graphs[k], cfg, specFor("tc", int64(-1-i)), fmt.Sprintf("setup-%d", i))
		if err != nil {
			return err
		}
		if measuredSegment(i) {
			st.want = wants[k]
			err = r.servedSegment(s, st)
		}
		s.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// servedState is what served-mix's segments share: the current
// segment's oracle, the first answer each spec got, and the spec tag and
// job ID counters. Tags are never reused, so a first answer belongs to
// one segment's graph.
type servedState struct {
	want map[string]answer
	mu   sync.Mutex
	orig map[int64]answer // first answer per spec tag
	tags atomic.Int64
	seq  atomic.Int64
	segs int // segments run so far; seeds each segment's client RNGs
}

// servedSegment runs the clients against one server for its share of the
// window. Repeats draw from the specs this server has completed, so the
// result cache can answer them.
func (r *run) servedSegment(s *inproc, st *servedState) error {
	// One unmeasured job per app warms the server's pools.
	for _, app := range apps {
		id := fmt.Sprintf("warm-%d", st.seq.Add(1))
		if _, _, err := s.cl.servedJob(specFor(app, st.tags.Add(1)), id, r.off); err != nil {
			return err
		}
	}
	var recent []jobspec.Spec // specs completed on this server, newest last
	perClient := make([][]jobObs, servedClients)
	st.segs++
	end := time.Now().Add(r.window / segments)
	r.measure(func() {
		var wg sync.WaitGroup
		for c := 0; c < servedClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(derive(r.seed, int64(40+servedClients*st.segs+c))))
				for k := 0; time.Now().Before(end); k++ {
					var spec jobspec.Spec
					st.mu.Lock()
					if len(recent) > 0 && rng.Float64() < repeatShare {
						spec = recent[rng.Intn(len(recent))]
					} else {
						spec = specFor(apps[rng.Intn(len(apps))], st.tags.Add(1))
					}
					st.mu.Unlock()
					sp := r.off
					if r.traced && k%2 == 1 {
						sp = r.sp
					}
					id := fmt.Sprintf("j%d", st.seq.Add(1))
					o, got, err := s.cl.servedJob(spec, id, sp)
					if err != nil {
						if isRefused(err) {
							st.mu.Lock()
							r.refused++
							st.mu.Unlock()
						}
						r.tally.fail(err)
						continue
					}
					// A repeat must match the first answer its spec got (a
					// cache hit is byte-identical to the original); a first
					// answer must match the session reference.
					st.mu.Lock()
					first, seen := st.orig[spec.Seed]
					st.mu.Unlock()
					expect, what := st.want[spec.App], "served-mix "+spec.App
					if seen {
						expect, what = first, "served-mix repeat "+id
					}
					if !r.tally.check(what, expect, got) {
						continue
					}
					if !seen {
						st.mu.Lock()
						st.orig[spec.Seed] = got
						recent = append(recent, spec)
						if len(recent) > 64 {
							recent = recent[1:]
						}
						st.mu.Unlock()
					}
					perClient[c] = append(perClient[c], o)
				}
			}(c)
		}
		wg.Wait()
	})
	var jobs []jobObs
	for _, js := range perClient {
		jobs = append(jobs, js...)
	}
	if r.traced {
		byJob, err := s.cl.jobCounters()
		if err != nil {
			return err
		}
		attachCounters(jobs, byJob)
	}
	r.jobs = append(r.jobs, jobs...)
	for _, o := range jobs {
		r.writes = append(r.writes, o.SubmitMS)
	}
	return nil
}
