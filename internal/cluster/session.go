package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/memctl"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/trace"
	"gminer/internal/transport"
)

// Session is a warm cluster serving many mining jobs over one resident
// graph. The costs a one-shot run pays per query — loading the graph,
// BDG-partitioning it, building every worker's vertex table — are paid
// once at session start; each Launch then reuses the partition assignment,
// the shared read-only vertex tables and one multiplexed transport, so a
// job's startup cost is only its own pipeline state (task store, RCV
// cache, queues). The paper's task model makes jobs independent sets of
// tasks (§4.1–4.2), so concurrent jobs never share mutable state: each
// gets its own mux channel (job-scoped wire envelope), store, cache,
// counters, checkpoints and tracer.
//
// A session built by NewRemoteSession is the coordinator of a
// multi-process cluster: the same job surface, with the K engine workers
// living in other OS processes (see coordinator).
type Session struct {
	g      *graph.Graph
	cfg    Config
	assign *partition.Assignment
	// locals and csr are nil on a coordinator: its workers build their own.
	locals []*localTable
	// csr is the degree-ranked adjacency index compiled execution plans run
	// on, built once at session start (like the partition and the vertex
	// tables) and shared read-only by every job. On a dynamic session it is
	// rebuilt lazily: the first Launch after a mutation epoch pays for it.
	csr *kernels.CSR

	// net is the transport under mux: the in-process LocalNetwork, or the
	// coordinator's TCP RemoteNetwork.
	net interface{ Close() }
	mux *transport.Mux

	partitionTime time.Duration

	// Dynamic-session state (nil dyn on a static session). epochMu is the
	// graph-epoch lock: every job holds the read side from Launch until
	// the end of its Wait teardown, and ApplyMutations takes the write
	// side — so a mutation batch applies only when no job is touching the
	// shared graph, assignment or local tables, and jobs always observe a
	// whole epoch. epoch mirrors dyn.Epoch() for lock-free reads
	// (/healthz, /metrics).
	epochMu  sync.RWMutex
	dyn      *dyngraph.State
	epoch    atomic.Int64
	mu       sync.Mutex // guards csr and csrEpoch on a dynamic session
	csrEpoch int64      // epoch s.csr was built at

	jobs jobRegistry
	// oneJob marks the session Start builds around a single job: the
	// template's Chaos and Resume apply to that job, its files keep the
	// single-shot layout (no per-job subdirectory, empty JobID), and the
	// session shuts down at the end of the job's Wait.
	oneJob bool

	// coord is what only a multi-process coordinator holds; nil in-process.
	coord *coordinator
}

// NewSession partitions the frozen graph once and brings the shared
// transport up. The config is the template every job inherits (workers,
// threads, cache sizes, stealing, ...); per-job knobs are set at Launch.
func NewSession(g *graph.Graph, cfg Config) (*Session, error) {
	if cfg.Chaos != nil {
		return nil, fmt.Errorf("cluster: sessions do not support chaos injection (crash schedules target a single job)")
	}
	if cfg.Resume {
		return nil, fmt.Errorf("cluster: sessions cannot resume (resume a job, not the session)")
	}
	return newSession(g, cfg, false)
}

func newSession(g *graph.Graph, cfg Config, oneJob bool) (*Session, error) {
	cfg = cfg.Defaults()
	if !g.Frozen() {
		return nil, fmt.Errorf("cluster: session graph must be frozen")
	}
	s := &Session{g: g, cfg: cfg, oneJob: oneJob}
	if err := s.partition(); err != nil {
		return nil, err
	}

	s.locals = make([]*localTable, cfg.Workers)
	for i := range s.locals {
		s.locals[i] = buildLocalTable(g, s.assign, i)
	}

	csr, err := kernels.Build(g)
	if err != nil {
		return nil, fmt.Errorf("cluster: session CSR index: %w", err)
	}
	s.csr = csr

	nodes := cfg.Workers + 1
	// Per-job byte accounting happens at the mux endpoints.
	net := transport.NewLocal(transport.LocalConfig{
		Nodes:        nodes,
		Latency:      cfg.Latency,
		BandwidthBps: cfg.BandwidthBps,
	})
	under := make([]transport.Endpoint, nodes)
	for i := range under {
		under[i] = net.Endpoint(i)
	}
	s.net = net
	s.mux = transport.NewMux(under)
	return s, nil
}

// partition computes the session's resident assignment once and times
// it. A dynamic session keeps the block state mutations re-place.
func (s *Session) partition() error {
	start := time.Now()
	if s.cfg.Dynamic {
		blocked, ok := s.cfg.Partitioner.(partition.Blocked)
		if !ok {
			return fmt.Errorf("cluster: dynamic sessions require the blocked partitioner, not %q", s.cfg.Partitioner.Name())
		}
		st, err := dyngraph.NewState(s.g, s.cfg.Workers, blocked.Shift)
		if err != nil {
			return fmt.Errorf("cluster: session partition: %w", err)
		}
		s.dyn = st
		s.assign = st.Assignment()
	} else {
		a, err := s.cfg.Partitioner.Partition(s.g, s.cfg.Workers)
		if err != nil {
			return fmt.Errorf("cluster: session partition: %w", err)
		}
		s.assign = a
	}
	s.partitionTime = time.Since(start)
	return nil
}

// JobOptions are the per-job knobs of Session.Launch.
type JobOptions struct {
	// ID names the job; it namespaces spill/checkpoint directories and
	// metrics labels. Empty picks "job-<n>". IDs of live jobs must be
	// unique; a finished job's ID may be reused.
	ID string
	// Tracer, if non-nil, records this job's pipeline events and latency
	// histograms (create with trace.New(Workers+1, ...)).
	Tracer *trace.Tracer
	// MemBudgetBytes bounds the job-owned memory (task store + RCV cache
	// summed over workers). 0 means unlimited. Exceeding it cancels the
	// job with an error wrapping memctl.ErrOOM. A coordinator session
	// refuses a nonzero budget: it could not enforce it across processes.
	MemBudgetBytes int64
	// CheckpointEvery overrides the template's checkpoint interval for
	// this job; 0 inherits it.
	CheckpointEvery time.Duration
	// RoundHook, if non-nil, is called by the job's master once per
	// scheduling round (see Config.RoundHook). The serving layer's QoS
	// enforcement point: budget and deadline checks run here so a job is
	// only ever stopped at a round boundary.
	RoundHook func(round int64)
	// Spec is the job's normalized workload spec. A coordinator session
	// requires it — worker processes rebuild the algorithm from the spec,
	// since core.Algorithm values cannot cross a process boundary. An
	// in-process Session ignores it.
	Spec *jobspec.Spec
}

// Launch starts one mining job on the warm cluster and returns its handle.
// The caller collects the result with Job.Wait (which also releases the
// job's mux channel) and may Cancel it at any time without disturbing
// co-resident jobs.
func (s *Session) Launch(a core.Algorithm, opt JobOptions) (*Job, error) {
	if s.coord != nil {
		if err := s.coord.admit(opt); err != nil {
			return nil, err
		}
	}
	// Take the job's graph-epoch read lease first: from here until the end
	// of the job's Wait teardown the resident graph cannot mutate under
	// it. On a static session the lock is never contended.
	s.epochMu.RLock()
	id, ch, err := s.jobs.reserve(opt.ID)
	if err != nil {
		s.epochMu.RUnlock()
		return nil, err
	}
	abort := func(err error) (*Job, error) {
		s.mux.CloseChannel(ch)
		s.jobs.forget(id)
		s.epochMu.RUnlock()
		return nil, err
	}

	csr, err := s.ensureCSR()
	if err != nil {
		return abort(err)
	}

	cfg := s.cfg
	cfg.GraphEpoch = s.epoch.Load()
	cfg.Tracer = opt.Tracer
	cfg.RoundHook = opt.RoundHook
	if opt.MemBudgetBytes > 0 {
		cfg.MemBudget = memctl.NewBudget(opt.MemBudgetBytes)
	}
	if opt.CheckpointEvery > 0 {
		cfg.CheckpointEvery = opt.CheckpointEvery
	}
	retire := s.epochMu.RUnlock
	if s.oneJob {
		retire = func() {
			s.epochMu.RUnlock()
			s.shutdown()
		}
	} else {
		cfg.JobID = id
		if cfg.CheckpointDir != "" {
			cfg.CheckpointDir = filepath.Join(cfg.CheckpointDir, id)
		}
	}

	env := &launchEnv{
		assign:        s.assign,
		partitionTime: s.partitionTime,
		locals:        s.locals,
		mux:           s.mux,
		channel:       ch,
		csr:           csr,
		release: func() {
			s.mux.CloseChannel(ch)
			s.jobs.forget(id)
		},
		retire: retire,
	}
	if s.coord != nil {
		s.coord.prepare(id, &cfg, env)
	}

	env.counters = newCounters(cfg.Workers + 1)
	env.endpoints, err = s.mux.Open(ch, env.counters, cfg.Tracer)
	if err != nil {
		return abort(err)
	}
	j, err := startJob(s.g, a, cfg, env)
	if err != nil {
		return abort(err)
	}
	if s.coord != nil {
		s.coord.started(j, *opt.Spec)
	}
	s.jobs.set(id, j)
	return j, nil
}

// ActiveJobs returns the number of jobs launched and not yet fully torn
// down (a job leaves the count at the end of its Wait).
func (s *Session) ActiveJobs() int { return s.jobs.active() }

// Graph returns the resident graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// Config returns the session's template config (with defaults applied).
func (s *Session) Config() Config { return s.cfg }

// PartitionTime is the one-time static partitioning cost every job
// amortizes.
func (s *Session) PartitionTime() time.Duration { return s.partitionTime }

// EdgeCut is the partitioning edge-cut fraction of the resident
// assignment.
func (s *Session) EdgeCut() float64 {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	return s.assign.EdgeCut(s.g)
}

// Fingerprint identifies the resident graph plus the session topology
// (worker count, partitioner) — everything that, beyond the workload
// spec itself, determines a job's output. The serving layer's result
// cache keys on it so entries die with the graph they were computed on;
// on a dynamic session the current graph epoch folds in too.
func (s *Session) Fingerprint() uint64 {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	cfg := s.cfg
	cfg.GraphEpoch = s.epoch.Load()
	return jobFingerprint(s.g, "session", cfg)
}

// Dynamic reports whether the session accepts mutations (never on a
// coordinator).
func (s *Session) Dynamic() bool { return s.dyn != nil }

// GraphEpoch returns the current graph epoch (0 = the loaded snapshot;
// always 0 on a static session or a coordinator). Lock-free, safe from
// any goroutine.
func (s *Session) GraphEpoch() int64 { return s.epoch.Load() }

// WithGraphRead runs fn while holding a graph-epoch read lease: the
// resident graph cannot mutate during fn. Control-plane reads of the
// graph (spec validation against it, stats for health endpoints) go
// through here on serving daemons; jobs get the same protection
// implicitly from Launch.
func (s *Session) WithGraphRead(fn func()) {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	fn()
}

// ensureCSR returns the CSR index for the current epoch, rebuilding it
// if mutations landed since it was last compiled. Callers hold the
// epoch read lease, so the epoch cannot advance during the rebuild.
func (s *Session) ensureCSR() (*kernels.CSR, error) {
	if s.dyn == nil {
		return s.csr, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep := s.epoch.Load(); s.csr == nil || s.csrEpoch != ep {
		csr, err := kernels.Build(s.g)
		if err != nil {
			return nil, fmt.Errorf("cluster: session CSR rebuild: %w", err)
		}
		s.csr, s.csrEpoch = csr, ep
	}
	return s.csr, nil
}

// EpochResult reports what one applied mutation batch changed.
type EpochResult struct {
	// Epoch is the graph epoch after the batch.
	Epoch int64
	// Stats is what the batch did to the graph.
	Stats dyngraph.ApplyStats
	// DirtyBlocks is the number of partition blocks containing a
	// structurally-changed vertex; MovedBlocks counts blocks whose owner
	// changed under re-placement.
	DirtyBlocks int
	MovedBlocks int
	// RebuiltWorkers lists the workers whose local vertex tables were
	// migrated (rebuilt); the other workers' tables were provably
	// untouched by the batch and survive as-is.
	RebuiltWorkers []int
	// ApplyTime is the wall time of the whole epoch apply (mutation +
	// incremental re-placement + table migration), excluding any wait for
	// running jobs to finish.
	ApplyTime time.Duration
}

// ApplyMutations applies one batch to the resident graph, advancing the
// graph epoch. It blocks until every running job has finished (jobs hold
// epoch read leases), then mutates the graph in place, incrementally
// re-places the partition blocks, and rebuilds only the local tables of
// workers the batch actually touched. The CSR index is not rebuilt here —
// the next Launch pays for it lazily.
func (s *Session) ApplyMutations(b dyngraph.Batch) (*EpochResult, error) {
	if s.dyn == nil {
		return nil, fmt.Errorf("cluster: session is not dynamic (enable Config.Dynamic)")
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if s.jobs.isClosed() {
		return nil, errSessionClosed
	}
	start := time.Now()
	info, err := s.dyn.Apply(s.g, b)
	if err != nil {
		return nil, err
	}
	s.assign = s.dyn.Assignment()
	var rebuilt []int
	for w, dirty := range info.DirtyWorkers {
		if dirty {
			s.locals[w] = buildLocalTable(s.g, s.assign, w)
			rebuilt = append(rebuilt, w)
		}
	}
	s.epoch.Store(info.Epoch)
	return &EpochResult{
		Epoch:          info.Epoch,
		Stats:          info.Stats,
		DirtyBlocks:    info.DirtyBlocks,
		MovedBlocks:    info.MovedBlocks,
		RebuiltWorkers: rebuilt,
		ApplyTime:      time.Since(start),
	}, nil
}

// DroppedMessages counts stale wire messages the mux discarded (traffic
// addressed to already-torn-down jobs), plus, on a coordinator, frames
// abandoned because a worker process stayed unreachable past the redial
// budget.
func (s *Session) DroppedMessages() int64 {
	if s.coord != nil {
		return s.mux.Dropped() + s.coord.net.Dropped()
	}
	return s.mux.Dropped()
}

// Close cancels any jobs still running, waits for their teardown, and
// shuts the shared transport down. The session refuses Launches from the
// moment Close begins. A coordinator attributes the cancellation to its
// shutdown, which keeps each job's durable JOBSPEC on disk for a
// `-resume` restart; its worker processes see their connections die and
// exit on their own schedule.
func (s *Session) Close() {
	var cause error
	if s.coord != nil {
		cause = errCoordinatorShutdown
	}
	if s.jobs.close(func(j *Job) { j.CancelCause(cause) }) {
		s.shutdown()
	}
}

// shutdown closes the shared transport and waits for its demux goroutines
// (and a coordinator's control loop).
func (s *Session) shutdown() {
	s.mux.Close()
	s.net.Close()
	s.mux.WaitDemux()
	if s.coord != nil {
		<-s.coord.ctlDone
	}
}

// newCounters allocates one metrics sink per node.
func newCounters(nodes int) []*metrics.Counters {
	cs := make([]*metrics.Counters, nodes)
	for i := range cs {
		cs[i] = &metrics.Counters{}
	}
	return cs
}

var errSessionClosed = errors.New("cluster: session closed")

// jobRegistry is a session's job table: live jobs by ID, mux-channel
// allocation and the closed flag.
type jobRegistry struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	nextCh uint64
	closed bool
}

// reserve allocates the next mux channel and claims the job ID — "job-<n>"
// for an empty one — before the job exists, so concurrent launches with
// the same explicit ID cannot both proceed. IDs of live jobs must be
// unique; a finished job's ID may be reused.
func (r *jobRegistry) reserve(id string) (string, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", 0, errSessionClosed
	}
	r.nextCh++
	if id == "" {
		id = fmt.Sprintf("job-%d", r.nextCh)
	}
	if _, live := r.jobs[id]; live {
		return "", 0, fmt.Errorf("cluster: job id %q already running", id)
	}
	if r.jobs == nil {
		r.jobs = make(map[string]*Job)
	}
	r.jobs[id] = nil
	return id, r.nextCh, nil
}

// set records the started job under its reserved ID.
func (r *jobRegistry) set(id string, j *Job) {
	r.mu.Lock()
	r.jobs[id] = j
	r.mu.Unlock()
}

// get returns the live job with the given ID (nil while only reserved).
func (r *jobRegistry) get(id string) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// forget releases a job's ID.
func (r *jobRegistry) forget(id string) {
	r.mu.Lock()
	delete(r.jobs, id)
	r.mu.Unlock()
}

// active counts jobs launched and not yet fully torn down.
func (r *jobRegistry) active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

func (r *jobRegistry) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// close marks the registry closed, cancels every live job with cancel and
// waits for each one's teardown. It reports false if the registry was
// already closed.
func (r *jobRegistry) close(cancel func(*Job)) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.closed = true
	live := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		if j != nil {
			live = append(live, j)
		}
	}
	r.mu.Unlock()
	for _, j := range live {
		cancel(j)
	}
	for _, j := range live {
		_, _ = j.Wait()
	}
	return true
}
