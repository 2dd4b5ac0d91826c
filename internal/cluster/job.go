package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gminer/internal/chaos"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/kernels"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/trace"
	"gminer/internal/transport"
)

// ErrCancelled is returned by Wait when the job was cancelled (Cancel, a
// serving-layer admission decision, or a memory-budget abort — the latter
// also wraps memctl.ErrOOM).
var ErrCancelled = errors.New("cluster: job cancelled")

// Result summarizes a finished job.
type Result struct {
	// Records are all emitted output records, merged across workers and
	// sorted for determinism.
	Records []string
	// AggGlobal is the final merged aggregator value (nil if none).
	AggGlobal any
	// Elapsed is the mining time (excludes partitioning).
	Elapsed time.Duration
	// PartitionTime is the static partitioning time (Figure 11 reports it
	// separately from job time).
	PartitionTime time.Duration
	// PerWorker holds each worker's final counters; Total is their sum
	// (plus the master's traffic).
	PerWorker []metrics.Snapshot
	Total     metrics.Snapshot
	// Timeline is the cluster-wide utilization timeline when sampling was
	// enabled (Figures 5–6).
	Timeline []metrics.TimelinePoint
	// EdgeCut is the partitioning edge-cut fraction.
	EdgeCut float64
	// Recovered counts worker recoveries during the run.
	Recovered int
	// LastCheckpointErr is the most recent checkpoint persist/commit
	// failure observed during the run (nil when every epoch landed). The
	// job still completes — durability degraded, correctness did not — but
	// callers relying on -resume must know their snapshots may be stale.
	LastCheckpointErr error
	// Phases holds the tracer's per-phase latency percentiles (task
	// round, pull RTT, spill I/O, migration, checkpoint) when a tracer
	// was attached via Config.Tracer; nil otherwise.
	Phases []trace.PhaseSummary
}

// CPUUtil returns the average computing-thread utilization of the run.
func (r *Result) CPUUtil(cfg Config) float64 {
	return r.Total.CPUUtil(r.Elapsed, cfg.Workers*cfg.Threads)
}

// Job is a running G-Miner job.
type Job struct {
	cfg    Config
	g      *graph.Graph
	algo   core.Algorithm
	assign *partition.Assignment
	locals []*localTable // prebuilt partition views, one per worker (nil for remote jobs)

	// mux and channel locate the job's mailboxes on its session's
	// transport; endpoints are the unwrapped channel endpoints a recovered
	// worker reconnects through.
	mux       *transport.Mux
	channel   uint64
	endpoints []transport.Endpoint
	// release tears down transport state the job borrowed rather than owns
	// (a Session's mux channel); called during Wait after the workers stop.
	release func()
	// retire runs at the very end of Wait's teardown, after the result —
	// which still reads the shared graph — has been assembled. A dynamic
	// Session drops the job's graph-epoch read lease here, so a pending
	// mutation batch can only apply once no job is touching the graph; a
	// one-job session (Start) shuts its transport down here.
	retire func()

	workers  []*Worker
	workerMu sync.Mutex
	master   *master
	sink     *snapshotSink

	counters []*metrics.Counters // one per node (workers + master)
	sampler  *metrics.Sampler

	// remote is set when the job's workers live in other processes
	// (RemoteSession): no local Worker structs exist and the final records
	// arrive over the control channel instead of takeResults.
	remote *remoteJobState
	// fence is the coordinator's fencing-token ledger (nil outside
	// multi-process mode), shared with the master and snapshot sink.
	fence *fenceTable

	partitionTime time.Duration
	started       time.Time
	failures      chan int
	recovered     int
	autoRecover   bool

	cancelOnce sync.Once
	cancelMu   sync.Mutex
	cancelErr  error

	waitOnce sync.Once
	result   *Result
	err      error
}

// launchEnv carries the resources a Session holds warm — the partition,
// the per-worker vertex tables, the CSR index and the job's mux channel —
// so a job launches without re-partitioning the graph or building a
// network of its own.
type launchEnv struct {
	assign        *partition.Assignment
	partitionTime time.Duration
	locals        []*localTable
	// endpoints are the job's mux-channel endpoints (workers + master);
	// counters holds one metrics sink per node, charged by those endpoints.
	endpoints []transport.Endpoint
	counters  []*metrics.Counters
	mux       *transport.Mux
	channel   uint64
	release   func()
	// csr is the session's prebuilt degree-ranked adjacency index, shared
	// read-only by every job on the resident graph (nil when the session
	// disabled plans).
	csr *kernels.CSR
	// remote, when non-nil, marks the workers as living in other
	// processes: startJob builds only the master and Wait collects
	// worker results through this state instead of local Worker structs.
	remote *remoteJobState
	// fence is the coordinator's fencing-token ledger (nil outside
	// multi-process mode): the master and snapshot sink consult it to
	// refuse checkpoint acks from fenced-out worker generations.
	fence *fenceTable
	// retire, see Job.retire.
	retire func()
}

// remoteJobState gathers the per-worker results a multi-process job ships
// over the control channel when each worker-process finishes the job.
type remoteJobState struct {
	timeout time.Duration
	// fence, when set, gates completion on result generations: a draining
	// worker ships a partial result at detach, and the job must not look
	// complete until the replacement (at a later generation) supersedes it.
	fence *fenceTable

	mu       sync.Mutex
	records  map[int][]string
	counters map[int]metrics.Snapshot
	ckptErrs map[int]string
	gens     map[int]int64 // generation each worker's delivery arrived with
	need     int
	done     chan struct{}
}

// remoteStateWithFence builds the collector with the coordinator's
// fencing ledger attached (the multi-process session path).
func remoteStateWithFence(workers int, timeout time.Duration, fence *fenceTable) *remoteJobState {
	r := newRemoteJobState(workers, timeout)
	r.fence = fence
	return r
}

func newRemoteJobState(workers int, timeout time.Duration) *remoteJobState {
	return &remoteJobState{
		timeout:  timeout,
		records:  make(map[int][]string),
		counters: make(map[int]metrics.Snapshot),
		ckptErrs: make(map[int]string),
		gens:     make(map[int]int64),
		need:     workers,
		done:     make(chan struct{}),
	}
}

// deliver records one worker's shipped result. A replacement worker for
// the same node supersedes an earlier delivery (the engine's termination
// rule guarantees the final, complete instance reports last). Completion
// requires a delivery from every worker AND that none of them has since
// been fenced out — a detaching worker's partial result holds its slot's
// place but can never satisfy the job by itself.
func (r *remoteJobState) deliver(m *jobResultMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records[m.Worker] = m.Records
	r.counters[m.Worker] = m.Counters
	r.ckptErrs[m.Worker] = m.CkptErr
	r.gens[m.Worker] = m.Gen
	if len(r.records) == r.need {
		for w, g := range r.gens {
			if r.fence.stale(w, g) {
				return
			}
		}
		select {
		case <-r.done:
		default:
			close(r.done)
		}
	}
}

// await blocks until every worker delivered or the timeout passes. The
// returned maps are safe to read: delivery is over once done is closed,
// and on timeout the caller is failing the job anyway.
func (r *remoteJobState) await() error {
	select {
	case <-r.done:
		return nil
	case <-time.After(r.timeout):
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	missing := make([]int, 0, r.need)
	for i := 0; i < r.need; i++ {
		if _, ok := r.records[i]; !ok {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	return fmt.Errorf("cluster: remote job: no result from workers %v within %s", missing, r.timeout)
}

// Start partitions the graph and launches the job on a one-job Session,
// which tears itself down when the job's Wait finishes. The graph must be
// frozen.
func Start(g *graph.Graph, algo core.Algorithm, cfg Config) (*Job, error) {
	if cfg.Dynamic {
		return nil, fmt.Errorf("cluster: graph mutations need a warm Session (Config.Dynamic is meaningless for a single-shot job)")
	}
	s, err := newSession(g, cfg, true)
	if err != nil {
		return nil, err
	}
	j, err := s.Launch(algo, JobOptions{Tracer: cfg.Tracer, RoundHook: cfg.RoundHook})
	if err != nil {
		s.Close()
		return nil, err
	}
	return j, nil
}

// startJob builds a job's master and workers on a session's warm
// resources and starts them.
func startJob(g *graph.Graph, algo core.Algorithm, cfg Config, env *launchEnv) (*Job, error) {
	j := &Job{
		cfg: cfg, g: g, algo: algo, failures: make(chan int, cfg.Workers),
		assign: env.assign, partitionTime: env.partitionTime, locals: env.locals,
		counters: env.counters, mux: env.mux, channel: env.channel, endpoints: env.endpoints,
		release: env.release, retire: env.retire, remote: env.remote, fence: env.fence,
	}

	// Configure the kernel layer before any seeding: plan-capable
	// algorithms get the session's CSR index unless the config forces the
	// generic baseline.
	if kc, ok := algo.(core.KernelConfigurable); ok {
		csr := env.csr
		if cfg.DisablePlans {
			csr = nil
		}
		kc.ConfigureKernels(csr, cfg.DisablePlans)
	}

	endpoints := append([]transport.Endpoint(nil), env.endpoints...)
	if cfg.Chaos != nil && cfg.Chaos.Profile().Active() {
		// Task migration payloads carry the tasks themselves: the protocol
		// has no ack/retransmit for them, so a dropped or duplicated
		// msgTasks would lose or double-count work with no recovery path
		// (the same hole the paper's checkpointing closes for crashes).
		// Fault everything else.
		cfg.Chaos.Exempt(msgTasks)
		cfg.Chaos.SetTracer(cfg.Tracer)
		cfg.Chaos.Begin()
		for i := range endpoints {
			endpoints[i] = cfg.Chaos.Wrap(endpoints[i])
		}
	}

	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("cluster: resume requires a checkpoint directory")
	}
	fingerprint := jobFingerprint(g, algo.Name(), cfg)
	sink, err := newSnapshotSink(cfg.CheckpointDir, cfg.Workers, fingerprint, 0, cfg.Resume)
	if err != nil {
		return nil, err
	}
	sink.fence = j.fence
	j.sink = sink

	resumeEpoch := noEpoch
	if cfg.Resume {
		man := sink.manifestView()
		if man == nil {
			return nil, fmt.Errorf("cluster: resume: no committed checkpoint in %s", cfg.CheckpointDir)
		}
		if man.Fingerprint != fingerprint {
			return nil, fmt.Errorf("cluster: resume: checkpoint fingerprint %016x does not match this job (%016x): "+
				"the graph, algorithm, worker count or partitioner changed since the checkpoint was taken",
				man.Fingerprint, fingerprint)
		}
		resumeEpoch = man.Epoch
	}

	var agg core.Aggregator
	if ap, ok := algo.(core.AggregatorProvider); ok {
		agg = ap.Aggregator()
	}
	j.master = newMaster(cfg, endpoints[cfg.Workers], agg, j.counters[cfg.Workers], j.failures, sink, j.fence)
	if resumeEpoch != noEpoch {
		// New epochs must supersede every committed one or the manifest's
		// newest-first ordering breaks.
		j.master.epoch = resumeEpoch
	}

	switch {
	case j.remote != nil:
		// The workers are other processes: the coordinator runs only the
		// master. They are told to start via the control channel after this
		// returns; their early traffic queues in the mux mailboxes.
	case cfg.Resume:
		j.workers, err = j.restoreAllWorkers(endpoints)
	default:
		j.workers, err = j.freshWorkers(endpoints)
	}
	if err != nil {
		return nil, err
	}

	if cfg.SampleEvery > 0 {
		j.sampler = metrics.NewSampler(cfg.SampleEvery, cfg.Workers*cfg.Threads, j.counters[:cfg.Workers]...)
		j.sampler.Start()
	}

	j.started = time.Now()
	for _, w := range j.workers {
		w.start()
	}
	go j.master.run()
	if cfg.FailTimeout > 0 && j.remote == nil {
		// In-process recovery respawns local Worker structs. A remote job
		// has none: the master still detects the failure, and recovery is a
		// replacement worker process rejoining through the coordinator.
		j.autoRecover = true
		go j.recoveryLoop()
	}
	if cfg.Chaos != nil {
		for _, cr := range cfg.Chaos.Crashes() {
			if cr.Node < 0 || cr.Node >= cfg.Workers {
				continue
			}
			go j.runCrash(cr)
		}
	}
	return j, nil
}

// budgetAbort cancels the job when a worker's memory charge exceeded the
// job's budget; co-resident jobs in the same session are untouched.
func (j *Job) budgetAbort(err error) {
	j.cancelWith(fmt.Errorf("%w: %w", ErrCancelled, err))
}

// freshWorkers builds every worker from scratch.
func (j *Job) freshWorkers(endpoints []transport.Endpoint) ([]*Worker, error) {
	ws := make([]*Worker, j.cfg.Workers)
	for i := 0; i < j.cfg.Workers; i++ {
		w, err := newWorker(i, j.cfg, j.algo, j.g, j.assign, j.locals[i], endpoints[i], j.counters[i], j.sink, nil)
		if err != nil {
			releaseWorkers(ws)
			return nil, err
		}
		w.oomFn = j.budgetAbort
		ws[i] = w
	}
	return ws, nil
}

// restoreAllWorkers rebuilds the whole cluster from one committed epoch: a
// full-job resume must restore every worker from the SAME epoch (task
// stealing migrates tasks between epochs, so mixing epochs across workers
// could lose or duplicate tasks). The newest committed epoch whose every
// snapshot verifies and decodes wins; any bad file fails the epoch over to
// the previous committed one.
func (j *Job) restoreAllWorkers(endpoints []transport.Endpoint) ([]*Worker, error) {
	var lastErr error
	for _, epoch := range j.sink.committedEpochs() {
		ws := make([]*Worker, j.cfg.Workers)
		ok := true
		for i := 0; i < j.cfg.Workers; i++ {
			snap, err := j.sink.load(i, epoch)
			if err == nil {
				ws[i], err = newWorker(i, j.cfg, j.algo, j.g, j.assign, j.locals[i], endpoints[i], j.counters[i], j.sink, snap)
			}
			if err != nil {
				j.cfg.Tracer.Handle(i, trace.CompCheckpoint).Event(trace.EvRestoreFail, uint64(epoch))
				lastErr = err
				ok = false
				break
			}
			ws[i].oomFn = j.budgetAbort
		}
		if ok {
			return ws, nil
		}
		releaseWorkers(ws)
	}
	return nil, fmt.Errorf("cluster: resume: no usable committed epoch: %w", lastErr)
}

// releaseWorkers tears down never-started workers from an abandoned build.
func releaseWorkers(ws []*Worker) {
	for _, w := range ws {
		if w != nil {
			w.stop()
			w.spiller.Close()
		}
	}
}

// runCrash executes one scheduled chaos crash: kill the worker at cr.At,
// then bring it back — after cr.RecoverAfter if set, via the failure
// detector's recovery loop if one is running, or after a short fallback
// delay so an unattended run still terminates.
func (j *Job) runCrash(cr chaos.Crash) {
	t := time.NewTimer(cr.At)
	defer t.Stop()
	select {
	case <-j.master.doneCh:
		return
	case <-t.C:
	}
	j.KillWorker(cr.Node)
	wait := cr.RecoverAfter
	if wait <= 0 {
		if j.autoRecover {
			return
		}
		wait = 25 * j.cfg.ProgressInterval
	}
	t2 := time.NewTimer(wait)
	defer t2.Stop()
	select {
	case <-j.master.doneCh:
		return
	case <-t2.C:
	}
	_ = j.RecoverWorker(cr.Node)
}

// Run starts a job and waits for its result.
func Run(g *graph.Graph, algo core.Algorithm, cfg Config) (*Result, error) {
	j, err := Start(g, algo, cfg)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

// KillWorker simulates a crash of worker i: its goroutines stop without
// flushing anything, its mailbox is wiped (in-flight messages to it are
// lost) and it stops serving pull requests until recovered.
func (j *Job) KillWorker(i int) {
	j.workerMu.Lock()
	if j.workers == nil {
		// Remote job: kill the worker's process, not a local struct.
		j.workerMu.Unlock()
		return
	}
	w := j.workers[i]
	j.workerMu.Unlock()
	w.kill()
	j.mux.Reset(j.channel, i)
}

// RecoverWorker replaces a killed worker with a fresh one restored from
// the newest committed epoch. A torn or corrupt snapshot falls back to the
// previous committed epoch (traced as EvRestoreFail); with no usable
// committed checkpoint the worker restarts from scratch, which is safe
// because its un-checkpointed results died with it.
func (j *Job) RecoverWorker(i int) error {
	if j.remote != nil {
		return fmt.Errorf("cluster: remote job: recovery is a replacement worker process rejoining the coordinator")
	}
	ep := j.endpoints[i]
	// The replacement worker must see the same faulty network the rest of
	// the cluster does.
	if j.cfg.Chaos != nil {
		ep = j.cfg.Chaos.Wrap(ep)
	}
	tr := j.cfg.Tracer.Handle(i, trace.CompCheckpoint)
	var w *Worker
	for _, epoch := range j.sink.committedEpochs() {
		snap, err := j.sink.load(i, epoch)
		if err == nil {
			w, err = newWorker(i, j.cfg, j.algo, j.g, j.assign, j.locals[i], ep, j.counters[i], j.sink, snap)
		}
		if err != nil {
			tr.Event(trace.EvRestoreFail, uint64(epoch))
			w = nil
			continue
		}
		break
	}
	if w == nil {
		var err error
		w, err = newWorker(i, j.cfg, j.algo, j.g, j.assign, j.locals[i], ep, j.counters[i], j.sink, nil)
		if err != nil {
			return err
		}
	}
	w.oomFn = j.budgetAbort
	j.workerMu.Lock()
	j.workers[i] = w
	j.recovered++
	j.workerMu.Unlock()
	w.start()
	return nil
}

// noteRecovered counts a worker recovery performed outside the job (a
// replacement worker process re-admitted by the coordinator).
func (j *Job) noteRecovered() {
	j.workerMu.Lock()
	j.recovered++
	j.workerMu.Unlock()
}

// requestBarrier asks the job's master to checkpoint on its next periodic
// pass (no-op when checkpointing is disabled). The coordinator uses it to
// commit a draining worker's state before letting the process detach.
func (j *Job) requestBarrier() {
	j.master.requestBarrier()
}

// committedEpoch returns the newest committed epoch (noEpoch if none).
func (j *Job) committedEpoch() int64 {
	return j.master.committedEpoch()
}

// checkpointing reports whether the job runs with periodic checkpoints.
func (j *Job) checkpointing() bool {
	return j.cfg.CheckpointEvery > 0 && j.cfg.CheckpointDir != ""
}

// recoveryLoop respawns workers flagged dead by the master's failure
// detector.
func (j *Job) recoveryLoop() {
	for {
		select {
		case <-j.master.doneCh:
			return
		case i := <-j.failures:
			j.workerMu.Lock()
			alreadyDead := j.workers[i].killed.Load()
			j.workerMu.Unlock()
			if alreadyDead {
				_ = j.RecoverWorker(i)
			}
		}
	}
}

// Wait blocks until the job terminates and returns the merged result.
func (j *Job) Wait() (*Result, error) {
	j.waitOnce.Do(func() {
		<-j.master.doneCh
		elapsed := time.Since(j.started)

		// Remote job: the master has terminated (or been stopped), which
		// broadcast msgStop to the worker processes; each ships its final
		// records over the control channel. Collect them before tearing the
		// mux channel down. The session's control loop keeps routing results
		// to j.remote until release() runs below.
		var remoteErr error
		if j.remote != nil {
			remoteErr = j.remote.await()
		}

		j.workerMu.Lock()
		workers := append([]*Worker(nil), j.workers...)
		recovered := j.recovered
		j.workerMu.Unlock()

		for _, w := range workers {
			w.stop()
		}
		// Close the job's mux channel so blocked comm loops unblock; the
		// session's network stays up for other jobs.
		j.release()
		for _, w := range workers {
			w.wg.Wait()
			w.spiller.Close()
		}

		res := &Result{
			Elapsed:       elapsed,
			PartitionTime: j.partitionTime,
			EdgeCut:       j.assign.EdgeCut(j.g),
			AggGlobal:     j.master.globalAgg(),
			Recovered:     recovered,
		}
		for _, w := range workers {
			if err := w.lastCheckpointErr(); err != nil {
				res.LastCheckpointErr = err
			}
		}
		if j.master.ckptErr != nil {
			res.LastCheckpointErr = j.master.ckptErr
		}
		if j.remote != nil {
			// Records, per-worker counters and checkpoint errors were
			// shipped by the worker processes; the master's own counters are
			// the coordinator's node K.
			j.remote.mu.Lock()
			for i := 0; i < j.cfg.Workers; i++ {
				res.Records = append(res.Records, j.remote.records[i]...)
				snap := j.remote.counters[i]
				res.PerWorker = append(res.PerWorker, snap)
				res.Total = res.Total.Add(snap)
				if e := j.remote.ckptErrs[i]; e != "" {
					res.LastCheckpointErr = errors.New(e)
				}
			}
			j.remote.mu.Unlock()
			res.Total = res.Total.Add(j.counters[j.cfg.Workers].Snapshot())
		} else {
			for _, w := range workers {
				res.Records = append(res.Records, w.takeResults()...)
			}
			for i := 0; i <= j.cfg.Workers; i++ {
				snap := j.counters[i].Snapshot()
				if i < j.cfg.Workers {
					res.PerWorker = append(res.PerWorker, snap)
				}
				res.Total = res.Total.Add(snap)
			}
		}
		sort.Strings(res.Records)
		if j.sampler != nil {
			res.Timeline = j.sampler.Stop()
		}
		res.Phases = j.cfg.Tracer.Summary()
		j.result = res
		j.cancelMu.Lock()
		j.err = j.cancelErr
		if j.err == nil && remoteErr != nil {
			j.err = remoteErr
		}
		j.cancelMu.Unlock()
		if j.retire != nil {
			j.retire()
		}
	})
	return j.result, j.err
}

// Stop aborts a running job.
func (j *Job) Stop() {
	j.master.stop()
}

// Cancel cooperatively cancels a running job: the master broadcasts stop,
// workers drain their queues without running further task rounds, and Wait
// returns ErrCancelled alongside whatever partial state was merged. A job
// that already terminated is unaffected (Wait keeps its nil error).
func (j *Job) Cancel() { j.cancelWith(ErrCancelled) }

// CancelCause cancels like Cancel but attributes a cause: Wait's error
// wraps both ErrCancelled and cause, so callers can distinguish a user
// cancel from, say, a QoS preemption with errors.Is. A nil cause is a
// plain Cancel. Safe to call from Config.RoundHook.
func (j *Job) CancelCause(cause error) {
	if cause == nil {
		j.Cancel()
		return
	}
	j.cancelWith(fmt.Errorf("%w: %w", ErrCancelled, cause))
}

func (j *Job) cancelWith(err error) {
	j.cancelOnce.Do(func() {
		if !j.Done() {
			j.cancelMu.Lock()
			j.cancelErr = err
			j.cancelMu.Unlock()
		}
		j.master.stop()
	})
}

// Err returns the job's terminal error without blocking (nil while running
// or after a clean finish; ErrCancelled after cancellation).
func (j *Job) Err() error {
	j.cancelMu.Lock()
	defer j.cancelMu.Unlock()
	return j.cancelErr
}

// ID returns the job-scoped identifier (empty for a job started by
// Start or Run).
func (j *Job) ID() string { return j.cfg.JobID }

// WorkerSnapshots returns the current per-worker counters (live view for
// monitoring; implements monitor.Source).
func (j *Job) WorkerSnapshots() []metrics.Snapshot {
	out := make([]metrics.Snapshot, j.cfg.Workers)
	for i := 0; i < j.cfg.Workers; i++ {
		out[i] = j.counters[i].Snapshot()
	}
	return out
}

// Tracer returns the tracer attached via Config.Tracer (nil if none).
func (j *Job) Tracer() *trace.Tracer { return j.cfg.Tracer }

// Done reports whether the job has terminated.
func (j *Job) Done() bool {
	select {
	case <-j.master.doneCh:
		return true
	default:
		return false
	}
}
