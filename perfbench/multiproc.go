package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"gminer/internal/graph"
	"gminer/internal/server"
)

// procCluster is a gminerd coordinator plus one gminer-worker process per
// worker slot, talking over loopback TCP.
type procCluster struct {
	procs []*exec.Cmd // coordinator first
	lines chan string // the coordinator's standard output
	done  chan struct{}
	cl    *client
}

var (
	reListening = regexp.MustCompile(`coordinator: listening on (\S+) for`)
	reWarm      = regexp.MustCompile(`partitioning in ([0-9.]+)s \(edge cut ([0-9.]+)%\)`)
	reServing   = regexp.MustCompile(`serving: http://(\S+) `)
)

// startProcCluster starts the coordinator and the workers on graphPath
// and returns once the first job (firstSpec) is accepted over HTTP: the
// set-up multiproc's setup_s times. It records how long the workers took
// to join.
func (r *run) startProcCluster(graphPath string, first server.JobRequest) (*procCluster, error) {
	sh := r.shape
	t0 := time.Now()
	root := r.sp.begin("setup", "", 0)
	defer r.sp.end(root)
	pc := &procCluster{lines: make(chan string, 64), done: make(chan struct{})}
	coord := exec.Command(filepath.Join(r.binDir, "gminerd"),
		"-graph", graphPath, "-workers", strconv.Itoa(sh.Workers), "-threads", strconv.Itoa(sh.Threads),
		"-cluster-listen", "127.0.0.1:0", "-addr", "127.0.0.1:0", "-join-timeout", "60s")
	coord.Stderr = os.Stderr
	out, err := coord.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("gminerd stdout: %w", err)
	}
	if err := coord.Start(); err != nil {
		return nil, fmt.Errorf("start gminerd: %w", err)
	}
	pc.procs = append(pc.procs, coord)
	go pc.pump(out)

	fail := func(err error) (*procCluster, error) {
		pc.stop()
		return nil, err
	}
	spawn := r.sp.begin("gminerd start", "", root)
	m, err := pc.await(reListening)
	r.sp.end(spawn)
	if err != nil {
		return fail(err)
	}
	joinStart := time.Now()
	join := r.sp.begin("worker join", "", root)
	for i := 0; i < sh.Workers; i++ {
		w := exec.Command(filepath.Join(r.binDir, "gminer-worker"),
			"-graph", graphPath, "-workers", strconv.Itoa(sh.Workers), "-threads", strconv.Itoa(sh.Threads),
			"-coordinator", m[1], "-listen", "127.0.0.1:0")
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			r.sp.end(join)
			return fail(fmt.Errorf("start gminer-worker: %w", err))
		}
		pc.procs = append(pc.procs, w)
	}
	m, err = pc.await(reWarm)
	r.sp.end(join)
	if err != nil {
		return fail(err)
	}
	r.obs.add("cluster.remote_join_s", time.Since(joinStart).Seconds())
	partS, _ := strconv.ParseFloat(m[1], 64)
	cut, _ := strconv.ParseFloat(m[2], 64)
	r.obs.add("partition.ms", partS*1000)
	r.obs.add("partition.edge_cut", cut/100)
	if m, err = pc.await(reServing); err != nil {
		return fail(err)
	}
	pc.cl = newClient(m[1])
	var st server.JobStatus
	r.sp.do("POST /jobs", first.ID, root, func() { st, err = pc.cl.submit(first) })
	if err != nil {
		return fail(fmt.Errorf("first submit: %w", err))
	}
	r.obs.add("setup_s", time.Since(t0).Seconds())
	for !terminal(st.State) {
		time.Sleep(pollInterval)
		if st, err = pc.cl.status(first.ID); err != nil {
			return fail(err)
		}
	}
	return pc, nil
}

// pump forwards the coordinator's output lines until it exits.
func (pc *procCluster) pump(out io.Reader) {
	defer close(pc.done)
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		select {
		case pc.lines <- sc.Text():
		default: // nobody is waiting for a line; drop it
		}
	}
}

// await returns the submatches of the first coordinator line matching re.
func (pc *procCluster) await(re *regexp.Regexp) ([]string, error) {
	timeout := time.After(90 * time.Second)
	for {
		select {
		case line := <-pc.lines:
			if m := re.FindStringSubmatch(line); m != nil {
				return m, nil
			}
		case <-pc.done:
			return nil, fmt.Errorf("gminerd exited before printing %q", re)
		case <-timeout:
			return nil, fmt.Errorf("gminerd did not print %q within 90s", re)
		}
	}
}

// stop returns the cluster's peak RSS (VmHWM summed over its processes), then stops the workers (they
// drain and detach while the coordinator still answers) and the
// coordinator, waiting for each to exit; one that lingers is killed.
func (pc *procCluster) stop() float64 {
	if pc.cl != nil {
		pc.cl.close()
	}
	var rss float64
	for _, p := range pc.procs {
		if hwm, err := vmHWM(p.Process.Pid); err == nil {
			rss += hwm
		}
	}

	for i := len(pc.procs) - 1; i >= 0; i-- {
		p := pc.procs[i]
		exited := make(chan struct{})
		go func() {
			_ = p.Wait() // a signalled exit status is expected
			close(exited)
		}()
		_ = p.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			_ = p.Process.Kill()
			<-exited
		}
	}
	return rss
}

// writeGraph writes g where the gminerd and gminer-worker processes load
// it from.
func (r *run) writeGraph(g *graph.Graph, name string) (string, error) {
	path, err := filepath.Abs(filepath.Join(r.workDir, fmt.Sprintf("%s-seed%d.adj", name, r.seed)))
	if err != nil {
		return "", err
	}
	if err := graph.SaveFile(path, g); err != nil {
		return "", fmt.Errorf("write graph: %w", err)
	}
	return path, nil
}

// multiproc serves the batch-heavy graph and job cycle over HTTP from a
// gminerd coordinator with its workers in separate gminer-worker
// processes: the one workload that reaches the remote session, the remote
// worker and real sockets. Specs carry distinct seed fields, so every job
// computes instead of hitting the result cache.
func multiproc(r *run) error {
	var paths []string
	var wants []map[string]answer
	for k := 0; k < segments; k++ {
		g := heavyGraph(segmentSeed(r.seed, k))
		r.graphInfo(g)
		want, err := r.oracle(g, r.reps(1, 3))
		if err != nil {
			return err
		}
		if k == 0 && r.traced {
			if err := r.kernelLayers(g, 5); err != nil {
				return err
			}
		}
		path, err := r.writeGraph(g, fmt.Sprintf("heavy-%d", k))
		if err != nil {
			return err
		}
		paths, wants = append(paths, path), append(wants, want)
	}
	tag := int64(0)
	cycle := 0
	for i := 0; i < setupReps; i++ {
		k := segmentOf(i)
		first := server.JobRequest{Spec: specFor("tc", int64(-1-i)), ID: fmt.Sprintf("setup-%d", i)}
		pc, err := r.startProcCluster(paths[k], first)
		if err != nil {
			return err
		}
		if measuredSegment(i) {
			err = r.procSegment(pc, wants[k], &tag, &cycle)
		}
		rss := pc.stop()
		if measuredSegment(i) {
			r.rssMB = append(r.rssMB, rss)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// procSegment runs the job cycle against one process cluster for its
// share of the window.
func (r *run) procSegment(pc *procCluster, want map[string]answer, tag *int64, cycle *int) error {
	for _, app := range apps {
		*tag++
		if _, _, err := pc.cl.servedJob(specFor(app, *tag), fmt.Sprintf("warm-%d", *tag), r.off); err != nil {
			return err
		}
	}
	var jobs []jobObs
	end := time.Now().Add(r.window / segments)
	r.measure(func() {
		for ; time.Now().Before(end); *cycle++ {
			sp := r.off
			if r.traced && *cycle%2 == 1 {
				sp = r.sp
			}
			for _, app := range apps {
				*tag++
				o, got, err := pc.cl.servedJob(specFor(app, *tag), fmt.Sprintf("j%d", *tag), sp)
				if err != nil {
					r.tally.fail(err)
					continue
				}
				if r.tally.check("multiproc "+app, want[app], got) {
					jobs = append(jobs, o)
				}
			}
		}
	})
	if r.traced {
		byJob, err := pc.cl.jobCounters()
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
