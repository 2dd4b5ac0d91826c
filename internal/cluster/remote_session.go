package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/trace"
	"gminer/internal/transport"
)

// errCoordinatorShutdown is the cancel cause Close attaches to jobs it
// tears down: it marks the teardown as a coordinator restart rather than
// a user cancel, so the job's durable JOBSPEC survives for `-resume`.
var errCoordinatorShutdown = errors.New("cluster: coordinator shutdown")

// errRemoteMemBudget refuses per-job memory budgets on a multi-process
// cluster: the budget is charged from worker progress loops, which live in
// other processes, so it could not be enforced.
var errRemoteMemBudget = errors.New("cluster: remote sessions cannot enforce a per-job memory budget")

// jobspecName is the durable per-job spec file the coordinator writes
// into the job's checkpoint directory at launch, next to the MANIFEST. A
// restarted coordinator rebuilds its job registry from these.
const jobspecName = "JOBSPEC"

// RemoteSessionConfig configures the coordinator side of a multi-process
// cluster.
type RemoteSessionConfig struct {
	// Listen is the coordinator's TCP listen address ("127.0.0.1:0" for an
	// ephemeral port).
	Listen string
	// Advertise is the address worker processes are told to dial; defaults
	// to the bound listen address.
	Advertise string
	// FailTimeout marks a worker process failed after this much silence
	// during a job (the engine's failure detector). Default 2s.
	FailTimeout time.Duration
	// ResultTimeout bounds how long a finished job waits for every worker
	// process to ship its final records. Default 60s.
	ResultTimeout time.Duration
	// Redial is the dial retry budget for coordinator → worker traffic.
	// The zero value inherits the transport default (10s): long enough to
	// bridge a worker-process restart.
	Redial transport.RedialPolicy
	// Logf, if non-nil, receives coordinator lifecycle lines (joins,
	// losses, rejections).
	Logf func(format string, args ...any)
}

func (c RemoteSessionConfig) withDefaults() RemoteSessionConfig {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 2 * time.Second
	}
	if c.ResultTimeout <= 0 {
		c.ResultTimeout = 60 * time.Second
	}
	return c
}

// WorkerStatus is one worker slot's view in the coordinator's registry,
// exposed to the serving layer's health endpoint.
type WorkerStatus struct {
	Node     int       `json:"node"`
	Joined   bool      `json:"joined"`
	Addr     string    `json:"addr,omitempty"`
	LastSeen time.Time `json:"-"`
	// Generation counts how many times the slot was (re)claimed; >1 means
	// a replacement process took over after a loss. It doubles as the
	// slot's fencing token: traffic from older generations is refused.
	Generation int `json:"generation,omitempty"`
	// Draining marks a worker that received SIGTERM and is waiting for a
	// barrier checkpoint to commit before detaching.
	Draining bool `json:"draining,omitempty"`
}

// workerSlot is the coordinator's registry entry for one worker node.
type workerSlot struct {
	addr       string
	joined     bool
	draining   bool
	lastSeen   time.Time
	generation int
	// held maps job ID → set of checkpoint epochs the process claimed to
	// hold local snapshot files for at join (coordinator-resume input).
	held map[string]map[int64]bool
}

// remoteJobMeta is what the coordinator must remember about a live job to
// (re)start it on a worker process: the spec the worker rebuilds the
// algorithm from, and the job whose sink manifest names the committed
// epochs a rejoining worker may restore.
type remoteJobMeta struct {
	channel   uint64
	id        string
	spec      jobspec.Spec
	ckptEvery time.Duration
	job       *Job
	// resumeEpoch, when not noEpoch, pins the initial job-start resume
	// refs to ONE epoch: a full-session resume must restore every worker
	// from the same cut, so the coordinator picks the highest committed
	// epoch all rejoined workers hold and sends only that. Cleared (set to
	// noEpoch) after the initial starts; later rejoins fall back across
	// the whole manifest as usual.
	resumeEpoch atomic.Int64
}

// jobspecFile is the JOBSPEC JSON schema: everything Launch needs to
// reconstruct a held job on a restarted coordinator.
type jobspecFile struct {
	ID                     string       `json:"id"`
	Spec                   jobspec.Spec `json:"spec"`
	CheckpointEverySeconds float64      `json:"checkpoint_every_seconds,omitempty"`
}

// HeldJob is one resumable job a restarted coordinator found on disk
// (JOBSPEC + MANIFEST in its checkpoint directory). The serving layer
// resubmits these after the worker slots rejoin.
type HeldJob struct {
	ID                     string
	Spec                   jobspec.Spec
	CheckpointEverySeconds float64
}

// coordinator is the part of a Session only a multi-process coordinator
// has: the worker slots and their admission gate, the control channel and
// its loop, the fencing ledger, the TCP transport and the jobs a `-resume`
// start found on disk. The coordinator owns admission (the join
// handshake), the job registry, the checkpoint MANIFEST and every job's
// master; worker processes own the partition tables, the task pipelines
// and the checkpoint payload files.
//
// Determinism is preserved across the process split: the partition
// assignment is a pure function of (graph, workers, partitioner) computed
// identically on every process, task IDs are worker-scoped, and the final
// record set is sorted after the per-worker results are merged — so a
// job's records are byte-identical to the same job on an in-process
// Session.
type coordinator struct {
	s    *Session
	rcfg RemoteSessionConfig
	net  *transport.RemoteNetwork
	ctl  transport.Endpoint

	readyOnce sync.Once
	readyCh   chan struct{}

	// fence is the cluster's fencing-token ledger, raised at admission and
	// consulted by the control loop, every job's master and every sink.
	fence *fenceTable
	// fencedSeen dedups fenced-traffic log lines per slot: a zombie can
	// emit thousands of frames before it notices it is dead, and one line
	// per (generation, message type) is all an operator needs. Trace events
	// still fire per refusal.
	fencedSeen []atomic.Int64

	mu      sync.Mutex
	slots   []workerSlot
	byCh    map[uint64]*remoteJobMeta
	ctlDone chan struct{}
	// resumable maps job IDs found on disk at a `-resume` start to their
	// JOBSPEC contents; a Launch of one of these IDs restores from the
	// MANIFEST instead of starting fresh.
	resumable map[string]HeldJob
}

// NewRemoteSession starts a coordinator session: it partitions the graph
// (for the fingerprint, edge-cut reporting and job masters), binds the
// cluster listener and begins admitting worker processes. Jobs may be
// launched immediately; their masters' traffic to not-yet-joined workers
// queues in the transport until the worker dials in (WaitReady avoids
// that warm-up).
func NewRemoteSession(g *graph.Graph, cfg Config, rcfg RemoteSessionConfig) (*Session, error) {
	cfg = cfg.Defaults()
	rcfg = rcfg.withDefaults()
	if !g.Frozen() {
		return nil, fmt.Errorf("cluster: session graph must be frozen")
	}
	if cfg.Chaos != nil {
		return nil, fmt.Errorf("cluster: remote sessions do not support chaos injection")
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("cluster: coordinator resume requires a checkpoint directory")
	}
	if cfg.Dynamic {
		return nil, fmt.Errorf("cluster: remote sessions do not support graph mutations (run single-process for -dynamic)")
	}
	if cfg.MemBudget != nil {
		return nil, errRemoteMemBudget
	}

	c := &coordinator{
		rcfg:       rcfg,
		readyCh:    make(chan struct{}),
		fence:      newFenceTable(cfg.Workers),
		slots:      make([]workerSlot, cfg.Workers),
		byCh:       make(map[uint64]*remoteJobMeta),
		ctlDone:    make(chan struct{}),
		fencedSeen: make([]atomic.Int64, cfg.Workers),
	}
	if cfg.Resume {
		c.resumable = scanHeldJobs(cfg.CheckpointDir)
		// The session-level Resume flag has done its work (the scan); jobs
		// resume individually by ID so fresh launches still start clean.
		cfg.Resume = false
	}
	s := &Session{g: g, cfg: cfg, coord: c}
	c.s = s
	if err := s.partition(); err != nil {
		return nil, err
	}

	nodes := cfg.Workers + 1
	var err error
	c.net, err = transport.NewRemote(transport.RemoteConfig{
		Nodes:     nodes,
		Local:     cfg.Workers, // the coordinator holds the master slot K
		Listen:    rcfg.Listen,
		Advertise: rcfg.Advertise,
		Redial:    rcfg.Redial,
		Hello:     c.handleHello,
		// Transport-level fencing refusals (frames a zombie sent after its
		// slot was reclaimed) surface as EvFenced trace events on every
		// live job, same as the control loop's app-level refusals.
		OnFenced: func(from int, typ uint8, gen, min uint32) {
			c.traceFenced(from, int64(gen), typ)
		},
	})
	if err != nil {
		return nil, err
	}
	s.net = c.net
	under := make([]transport.Endpoint, nodes)
	under[cfg.Workers] = c.net.Endpoint()
	s.mux = transport.NewMuxPaused(under)
	ctlEps, err := s.mux.Open(ctrlChannel, nil, nil)
	if err != nil {
		c.net.Close()
		return nil, err
	}
	c.ctl = ctlEps[cfg.Workers]
	s.mux.StartDemux()
	go c.ctlLoop()
	return s, nil
}

// scanHeldJobs walks the coordinator's checkpoint root for per-job
// subdirectories carrying both a JOBSPEC and a committed MANIFEST — jobs
// a previous coordinator process held when it died.
func scanHeldJobs(root string) map[string]HeldJob {
	held := make(map[string]HeldJob)
	entries, err := os.ReadDir(root)
	if err != nil {
		return held
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		b, err := os.ReadFile(filepath.Join(dir, jobspecName))
		if err != nil {
			continue
		}
		var jf jobspecFile
		if json.Unmarshal(b, &jf) != nil || jf.ID == "" || jf.ID != e.Name() {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
			// No committed epoch: nothing to resume from. Drop the stale
			// spec so the next fresh launch of this ID starts clean.
			_ = os.Remove(filepath.Join(dir, jobspecName))
			continue
		}
		held[jf.ID] = HeldJob{ID: jf.ID, Spec: jf.Spec, CheckpointEverySeconds: jf.CheckpointEverySeconds}
	}
	return held
}

// HeldJobs lists the resumable jobs a `-resume` coordinator found on
// disk, sorted by ID (nil in-process). The serving layer resubmits each
// (same ID) once the worker slots have rejoined; Launch then restores it
// from the MANIFEST.
func (s *Session) HeldJobs() []HeldJob {
	c := s.coord
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]HeldJob, 0, len(c.resumable))
	for _, hj := range c.resumable {
		out = append(out, hj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// handleHello is the admission gate, invoked by the transport for every
// FrameHello received on an accepted connection. It decodes and validates
// the worker's join request, assigns (or re-assigns) a node slot, installs
// the peer address, rebroadcasts the topology, and re-starts every live
// job on the joiner — the epoch-fallback rejoin path a replacement process
// takes after a crash.
func (c *coordinator) handleHello(payload []byte) []byte {
	reject := func(reason string) []byte {
		c.logf("join rejected: %s", reason)
		return encodeWelcome(welcomeFrame{OK: false, Reason: reason})
	}
	h, err := decodeHello(payload)
	if err != nil {
		return reject(err.Error())
	}
	workers := c.s.cfg.Workers
	if err := validateHello(h, c.s.Fingerprint(), workers); err != nil {
		return reject(err.Error())
	}

	if c.s.jobs.isClosed() {
		return reject("cluster: coordinator shutting down")
	}
	c.mu.Lock()
	slot := int(h.Node)
	if slot < 0 {
		slot = c.pickSlotLocked()
	}
	if slot < 0 {
		c.mu.Unlock()
		return reject(fmt.Sprintf("cluster: all %d worker slots joined and live", workers))
	}
	st := &c.slots[slot]
	rejoin := st.generation > 0
	st.addr = h.Advertise
	st.joined = true
	st.draining = false
	st.lastSeen = time.Now()
	st.generation++
	generation := st.generation
	st.held = make(map[string]map[int64]bool, len(h.Held))
	for _, he := range h.Held {
		set := make(map[int64]bool, len(he.Epochs))
		for _, e := range he.Epochs {
			set[e] = true
		}
		st.held[he.JobID] = set
	}
	// Raise the fencing token BEFORE installing the peer address: from this
	// instant the previous holder of the slot is a zombie everywhere — the
	// transport drops its frames, the masters drop its acks, the sinks
	// refuse its commits.
	c.fence.raise(slot, int64(generation))
	c.net.FencePeer(slot, uint32(generation))
	c.net.SetPeer(slot, h.Advertise)

	peers, gens := c.peerTableLocked()
	allJoined := c.allJoinedLocked()
	// Snapshot the live jobs so the (re)start messages go out after the
	// lock drops: encodeCtrl and manifest walks need no registry state.
	restarts := c.liveJobsLocked()
	c.mu.Unlock()

	c.logf("worker %d joined from %s (generation %d)", slot, h.Advertise, generation)
	c.broadcastTopology(peers, gens)
	for _, meta := range restarts {
		c.sendJobStart(slot, meta, true)
		if rejoin {
			meta.job.noteRecovered()
		}
	}
	if allJoined {
		c.readyOnce.Do(func() { close(c.readyCh) })
	}
	return encodeWelcome(welcomeFrame{
		OK:         true,
		Node:       int32(slot),
		Workers:    int32(workers),
		Peers:      peers,
		Generation: int64(generation),
	})
}

// pickSlotLocked auto-assigns a slot: the first never/no-longer-joined
// one, else the stalest joined slot whose silence exceeds the failure
// timeout (its process is presumed dead), else -1. Caller holds c.mu.
func (c *coordinator) pickSlotLocked() int {
	for i := range c.slots {
		if !c.slots[i].joined {
			return i
		}
	}
	stalest, age := -1, c.rcfg.FailTimeout
	for i := range c.slots {
		if since := time.Since(c.slots[i].lastSeen); since > age {
			stalest, age = i, since
		}
	}
	return stalest
}

// allJoinedLocked reports whether every worker slot is joined. Caller
// holds c.mu.
func (c *coordinator) allJoinedLocked() bool {
	for i := range c.slots {
		if !c.slots[i].joined {
			return false
		}
	}
	return true
}

// joinedLocked lists the joined slots. Caller holds c.mu.
func (c *coordinator) joinedLocked() []int {
	joined := make([]int, 0, len(c.slots))
	for i := range c.slots {
		if c.slots[i].joined {
			joined = append(joined, i)
		}
	}
	return joined
}

// liveJobsLocked snapshots the live jobs. Caller holds c.mu.
func (c *coordinator) liveJobsLocked() []*remoteJobMeta {
	metas := make([]*remoteJobMeta, 0, len(c.byCh))
	for _, meta := range c.byCh {
		metas = append(metas, meta)
	}
	return metas
}

// peerTableLocked builds the dial-address table and the matching slot
// generations: workers 0..K-1, the coordinator at K (generation 0: the
// coordinator is never fenced). Caller holds c.mu.
func (c *coordinator) peerTableLocked() ([]string, []int64) {
	peers := make([]string, len(c.slots)+1)
	gens := make([]int64, len(c.slots)+1)
	for i := range c.slots {
		if c.slots[i].joined {
			peers[i] = c.slots[i].addr
		}
		gens[i] = int64(c.slots[i].generation)
	}
	peers[len(c.slots)] = c.net.Addr()
	return peers, gens
}

// broadcastTopology tells every joined worker the current peer table and
// slot generations, so live workers learn a replacement's address, sever
// their stale connections to the dead process, and raise their transport
// fencing floor against it (a zombie's pull requests and task frames die
// at every peer, not just at the coordinator).
func (c *coordinator) broadcastTopology(peers []string, gens []int64) {
	payload := encodeCtrl(topologyMsg{Peers: peers, Gens: gens})
	for i, addr := range peers[:len(c.slots)] {
		if addr != "" {
			_ = c.ctl.Send(i, ctrlTopology, payload)
		}
	}
}

// sendJobStart (re)starts one job on one worker process. With resume set,
// the message carries the committed (epoch, crc) pairs for that worker
// from the job's MANIFEST — the coordinator is its sole owner — newest
// first, so the rejoining process restores the newest epoch whose local
// snapshot file verifies and falls back across older commits.
func (c *coordinator) sendJobStart(node int, meta *remoteJobMeta, resume bool) {
	m := jobStartMsg{
		Channel:                meta.channel,
		JobID:                  meta.id,
		Spec:                   meta.spec,
		CheckpointEverySeconds: meta.ckptEvery.Seconds(),
	}
	if resume {
		// A pinned epoch is a full-session resume: every worker restores
		// the same cut.
		pin := meta.resumeEpoch.Load()
		for _, ref := range meta.job.sink.manifestView().refs(node) {
			if pin == noEpoch || ref.Epoch == pin {
				m.Resume = append(m.Resume, ref)
			}
		}
	}
	_ = c.ctl.Send(node, ctrlJobStart, encodeCtrl(m))
}

// ctlLoop routes worker → coordinator control traffic: final job results
// to the owning job's collector, heartbeats to the health registry.
func (c *coordinator) ctlLoop() {
	defer close(c.ctlDone)
	for {
		msg, ok := c.ctl.Recv()
		if !ok {
			return
		}
		switch msg.Type {
		case ctrlJobResult:
			var m jobResultMsg
			if err := decodeCtrl(msg.Payload, &m); err != nil {
				continue
			}
			if c.fence.stale(m.Worker, m.Gen) {
				// A fenced-out process shipping a "final" result: its slot
				// has been reclaimed, and its partial output must not
				// supersede the replacement's.
				c.traceFenced(m.Worker, m.Gen, ctrlJobResult)
				continue
			}
			c.mu.Lock()
			meta := c.byCh[m.Channel]
			c.mu.Unlock()
			if meta != nil && meta.job.remote != nil {
				meta.job.remote.deliver(&m)
			}
		case ctrlHeartbeat:
			var m heartbeatMsg
			if len(msg.Payload) > 0 {
				if err := decodeCtrl(msg.Payload, &m); err != nil {
					continue
				}
			}
			c.mu.Lock()
			if msg.From >= 0 && msg.From < len(c.slots) {
				st := &c.slots[msg.From]
				switch {
				case m.Gen == int64(st.generation):
					st.lastSeen = time.Now()
					// A heartbeat proves the process behind the slot's
					// address is alive; re-mark a slot the failure detector
					// gave up on. Only the CURRENT generation may do this —
					// a delayed zombie's heartbeat re-marking the slot
					// joined is exactly the split-brain fencing prevents.
					st.joined = true
					st.draining = m.Draining
				case m.Gen < int64(st.generation):
					c.mu.Unlock()
					c.traceFenced(msg.From, m.Gen, ctrlHeartbeat)
					continue
				}
			}
			c.mu.Unlock()
		case ctrlDrain:
			var m drainMsg
			if err := decodeCtrl(msg.Payload, &m); err != nil {
				continue
			}
			if c.fence.stale(msg.From, m.Gen) {
				c.traceFenced(msg.From, m.Gen, ctrlDrain)
				continue
			}
			// The barrier wait can span seconds; never block the ctl loop
			// (checkpoint acks ride the engine channels, but results and
			// heartbeats ride this one).
			go c.handleDrain(msg.From, m.Gen)
		}
	}
}

// traceFenced records a refused message from a fenced-out generation on
// every live job's tracer (arg = generation << 8 | message type). Called
// both from the control loop (app-level refusals) and the transport's
// OnFenced hook (frames dropped before any decoder saw them).
func (c *coordinator) traceFenced(from int, gen int64, typ uint8) {
	key := gen<<8 | int64(typ)
	if from >= 0 && from < len(c.fencedSeen) && c.fencedSeen[from].Swap(key) != key {
		c.logf("fenced: dropped message type %d from worker %d generation %d (slot is at %d)",
			typ, from, gen, c.fence.current(from))
	}
	c.mu.Lock()
	metas := c.liveJobsLocked()
	c.mu.Unlock()
	for _, meta := range metas {
		meta.job.cfg.Tracer.Handle(from, trace.CompCheckpoint).Event(trace.EvFenced, uint64(gen)<<8|uint64(typ))
	}
}

// handleDrain services one worker's SIGTERM drain request: mark the slot
// draining, force a barrier checkpoint on every live checkpointing job,
// wait for those epochs to commit, then tell the worker it may detach.
// On timeout (a peer died mid-barrier, checkpointing disabled, ...) the
// worker is released anyway — it has SIGTERM pending and holding it
// hostage helps nobody; its jobs recover through the normal rejoin path.
func (c *coordinator) handleDrain(node int, gen int64) {
	c.mu.Lock()
	if node >= 0 && node < len(c.slots) && int64(c.slots[node].generation) == gen {
		c.slots[node].draining = true
	}
	type pending struct {
		meta   *remoteJobMeta
		before int64
	}
	waits := make([]pending, 0, len(c.byCh))
	for _, meta := range c.byCh {
		if meta.job.checkpointing() && !meta.job.Done() {
			waits = append(waits, pending{meta: meta, before: meta.job.committedEpoch()})
		}
	}
	c.mu.Unlock()

	c.logf("worker %d draining (generation %d): forcing barrier checkpoint on %d job(s)", node, gen, len(waits))
	for _, p := range waits {
		p.meta.job.requestBarrier()
	}
	deadline := time.NewTimer(c.rcfg.ResultTimeout)
	defer deadline.Stop()
wait:
	for _, p := range waits {
		j := p.meta.job
		for {
			committed := j.sink.commitSignal()
			if j.committedEpoch() > p.before {
				break
			}
			select {
			case <-committed:
			case <-j.master.doneCh:
				continue wait
			case <-deadline.C:
				c.logf("worker %d drain: job %s barrier did not commit in time; releasing anyway", node, p.meta.id)
				break wait
			}
		}
	}
	_ = c.ctl.Send(node, ctrlDrainOK, encodeCtrl(drainMsg{Gen: gen}))
	c.logf("worker %d released to detach (generation %d)", node, gen)
}

// watchFailures marks worker slots the job's failure detector flagged as
// lost, so /healthz degrades and the slot becomes claimable by an
// auto-assigned replacement.
func (c *coordinator) watchFailures(j *Job) {
	for {
		select {
		case <-j.master.doneCh:
			return
		case i := <-j.failures:
			c.mu.Lock()
			if i >= 0 && i < len(c.slots) && time.Since(c.slots[i].lastSeen) > c.rcfg.FailTimeout {
				c.slots[i].joined = false
				c.mu.Unlock()
				c.logf("worker %d lost (silent past %s); awaiting replacement", i, c.rcfg.FailTimeout)
				continue
			}
			c.mu.Unlock()
		}
	}
}

// WaitReady blocks until every worker slot has joined (or the timeout
// passes); in-process it returns at once. Launching before ready works —
// early master traffic queues in the transport — but a serving daemon
// should gate its HTTP listener on readiness so the first job doesn't pay
// the join latency.
func (s *Session) WaitReady(timeout time.Duration) error {
	c := s.coord
	if c == nil {
		return nil
	}
	select {
	case <-c.readyCh:
		return nil
	case <-time.After(timeout):
	}
	c.mu.Lock()
	missing := make([]int, 0, len(c.slots))
	for i := range c.slots {
		if !c.slots[i].joined {
			missing = append(missing, i)
		}
	}
	c.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}
	return fmt.Errorf("cluster: workers %v have not joined within %s", missing, timeout)
}

// Ready reports whether every worker slot is currently joined (always
// true in-process, where workers are goroutines).
func (s *Session) Ready() bool {
	c := s.coord
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.allJoinedLocked()
}

// WorkerHealth returns the per-slot join/liveness view for /healthz (nil
// in-process: its workers are alive iff the process is).
func (s *Session) WorkerHealth() []WorkerStatus {
	c := s.coord
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, len(c.slots))
	for i := range c.slots {
		out[i] = WorkerStatus{
			Node:       i,
			Joined:     c.slots[i].joined,
			Addr:       c.slots[i].addr,
			LastSeen:   c.slots[i].lastSeen,
			Generation: c.slots[i].generation,
			Draining:   c.slots[i].draining,
		}
	}
	return out
}

// admit is Launch's first coordinator step: it requires opt.Spec (worker
// processes rebuild the algorithm from the spec — a core.Algorithm value
// cannot cross a process boundary) and refuses a memory budget.
func (c *coordinator) admit(opt JobOptions) error {
	if opt.Spec == nil {
		return fmt.Errorf("cluster: remote launch requires JobOptions.Spec (worker processes rebuild the algorithm from it)")
	}
	if opt.MemBudgetBytes > 0 {
		return fmt.Errorf("%w (job asked for MemBudgetBytes=%d)", errRemoteMemBudget, opt.MemBudgetBytes)
	}
	return nil
}

// prepare adapts a job's config and launch environment to workers in
// other processes: the coordinator's failure timeout, resume by ID (a job
// whose ID matches a JOBSPEC+MANIFEST found at a `-resume` start restores
// from its committed epochs), the result collector, the fencing ledger
// and a release that also stops the job on every worker process.
func (c *coordinator) prepare(id string, cfg *Config, env *launchEnv) {
	c.mu.Lock()
	_, resume := c.resumable[id]
	delete(c.resumable, id)
	c.mu.Unlock()
	cfg.FailTimeout = c.rcfg.FailTimeout
	cfg.Resume = resume
	env.fence = c.fence
	env.remote = newRemoteJobState(cfg.Workers, c.rcfg.ResultTimeout, c.fence)

	ch, dir, release := env.channel, cfg.CheckpointDir, env.release
	env.release = func() {
		// Backstop: workers normally stop on the master's msgStop
		// broadcast; tell them explicitly too, in case the engine frame was
		// dropped on a severed connection.
		j := c.s.jobs.get(id)
		c.mu.Lock()
		joined := c.joinedLocked()
		c.mu.Unlock()
		stop := encodeCtrl(jobStopMsg{Channel: ch})
		for _, i := range joined {
			_ = c.ctl.Send(i, ctrlJobStop, stop)
		}
		// The durable JOBSPEC outlives a coordinator shutdown (so `-resume`
		// can rebuild the job) but not a normal completion or user cancel.
		if dir != "" && (j == nil || !errors.Is(j.Err(), errCoordinatorShutdown)) {
			_ = os.Remove(filepath.Join(dir, jobspecName))
		}
		release()
		c.mu.Lock()
		delete(c.byCh, ch)
		c.mu.Unlock()
	}
}

// started is Launch's last coordinator step: persist the JOBSPEC, register
// the job for control traffic, and start it on every joined worker
// process — all from one committed cut when it resumes.
func (c *coordinator) started(j *Job, spec jobspec.Spec) {
	id, cfg, resume := j.cfg.JobID, j.cfg, j.cfg.Resume
	meta := &remoteJobMeta{channel: j.channel, id: id, spec: spec, ckptEvery: cfg.CheckpointEvery, job: j}
	meta.resumeEpoch.Store(noEpoch)
	if cfg.CheckpointDir != "" {
		// Persist the spec next to the MANIFEST so a restarted coordinator
		// can rebuild and resume this job.
		b, _ := json.Marshal(jobspecFile{ID: id, Spec: spec, CheckpointEverySeconds: cfg.CheckpointEvery.Seconds()})
		if err := writeFileDurable(filepath.Join(cfg.CheckpointDir, jobspecName), b); err != nil {
			c.logf("job %s: persisting JOBSPEC failed: %v (job runs; coordinator resume will not cover it)", id, err)
		}
	}

	c.mu.Lock()
	c.byCh[j.channel] = meta
	joined := c.joinedLocked()
	if resume {
		// Pin the initial resume refs to the highest committed epoch every
		// joined worker claims to hold, so the whole cluster restores one
		// consistent cut (falling back to the manifest head if the held
		// lists are inconclusive — the CRC check decides at restore).
		if man := j.sink.manifestView(); man != nil {
			pin := man.Epoch
			for _, epoch := range man.epochs() {
				all := true
				for i := range c.slots {
					if !c.slots[i].joined || !c.slots[i].held[id][epoch] {
						all = false
						break
					}
				}
				if all {
					pin = epoch
					break
				}
			}
			meta.resumeEpoch.Store(pin)
		}
	}
	c.mu.Unlock()

	go c.watchFailures(j)
	for _, i := range joined {
		c.sendJobStart(i, meta, resume)
	}
	if resume {
		meta.resumeEpoch.Store(noEpoch)
		c.logf("job %s resumed from committed checkpoint (%d worker(s) started)", id, len(joined))
	}
}

// Addr is the coordinator's cluster address (what workers dial to join);
// empty in-process.
func (s *Session) Addr() string {
	if s.coord == nil {
		return ""
	}
	return s.coord.net.Addr()
}

// FencedFrames counts inbound frames the coordinator's transport refused
// because their sender's generation had been fenced out — a zombie
// predecessor provably cut off, not split-braining the cluster. Always 0
// in-process.
func (s *Session) FencedFrames() int64 {
	if s.coord == nil {
		return 0
	}
	return s.coord.net.Fenced()
}

func (c *coordinator) logf(format string, args ...any) {
	if c.rcfg.Logf != nil {
		c.rcfg.Logf(format, args...)
	}
}
