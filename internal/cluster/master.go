package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/core"
	"gminer/internal/metrics"
	"gminer/internal/trace"
	"gminer/internal/transport"
	"gminer/internal/wire"
)

// master coordinates the job (§5.1, Figure 4): it maintains the global
// progress table from worker reports, schedules task stealing (progress
// scheduler), merges and broadcasts aggregator values, triggers periodic
// checkpoints, detects failures and decides termination.
type master struct {
	cfg      Config
	ep       transport.Endpoint
	agg      core.Aggregator // nil if the algorithm has none
	counters *metrics.Counters

	reports  []*progressReport
	lastSeen []time.Time
	partials [][]byte // latest encoded aggregator partial per worker

	// Termination detection: probe waves (checkTermination).
	wave      int64         // newest probe wave
	waveOpen  bool          // wave is outstanding and unrefuted
	waveAt    time.Time     // when wave was broadcast
	waveWait  time.Duration // how long an unanswered wave lives
	waveBase  []int64       // Activity per worker in the reports wave was based on
	waveOK    []bool        // worker answered wave idle with unchanged Activity
	waveLeft  int           // workers yet to answer wave
	recovered bool          // a failure happened: sent/recv sums may never match

	// checkpoint state
	epoch        int64
	ckptPending  int
	ckptAcks     map[int]uint32 // worker → snapshot CRC acked for m.epoch
	ackGens      map[int]int64  // worker → fencing generation the ack arrived with
	sink         *snapshotSink  // commits epochs to the MANIFEST; may be nil in tests
	ckptErr      error          // last commit failure, surfaced on cluster.Result
	lastCkpt     time.Time
	lastAggBytes []byte

	// fence is the cluster's fencing-token ledger (nil in single-process
	// mode): acks from a fenced-out generation are dropped before they can
	// count toward a commit.
	fence   *fenceTable
	trFence trace.Handle

	// barrier, when set, forces a checkpoint on the next periodic() pass
	// regardless of the interval clock. A draining worker raises it (via
	// the coordinator) so its state is committed before it detaches.
	barrier atomic.Bool

	failed   map[int]bool
	failures chan<- int

	doneCh chan struct{}
	stopCh chan struct{}
}

func newMaster(cfg Config, ep transport.Endpoint, agg core.Aggregator,
	counters *metrics.Counters, failures chan<- int, sink *snapshotSink, fence *fenceTable) *master {
	m := &master{
		cfg:      cfg,
		ep:       ep,
		agg:      agg,
		counters: counters,
		reports:  make([]*progressReport, cfg.Workers),
		lastSeen: make([]time.Time, cfg.Workers),
		waveWait: cfg.ProgressInterval,
		waveBase: make([]int64, cfg.Workers),
		waveOK:   make([]bool, cfg.Workers),
		partials: make([][]byte, cfg.Workers),
		ckptAcks: make(map[int]uint32),
		ackGens:  make(map[int]int64),
		sink:     sink,
		fence:    fence,
		trFence:  cfg.Tracer.Handle(cfg.Workers, trace.CompCheckpoint),
		failed:   make(map[int]bool),
		failures: failures,
		doneCh:   make(chan struct{}),
		stopCh:   make(chan struct{}),
		lastCkpt: time.Now(),
	}
	// Start the silence clock at job launch so a worker that dies before
	// its first report is still detected; zero lastSeen would make such a
	// worker invisible to the failure detector forever.
	now := time.Now()
	for i := range m.lastSeen {
		m.lastSeen[i] = now
	}
	return m
}

// run is the master's main loop; it returns once the job has terminated
// (doneCh closed) or the master is stopped externally.
func (m *master) run() {
	defer close(m.doneCh)
	tick := m.cfg.ProgressInterval
	var round int64
	for {
		select {
		case <-m.stopCh:
			// External stop (cancellation, timeout): tell the workers too,
			// so their pipelines drain immediately instead of spinning
			// until the caller's Wait tears them down.
			m.broadcast(msgStop, nil)
			return
		default:
		}
		if msg, ok := m.ep.RecvTimeout(tick); ok {
			m.handle(msg)
			// Drain whatever else is queued before doing periodic work.
			for {
				msg, ok := m.ep.RecvTimeout(0)
				if !ok {
					break
				}
				m.handle(msg)
			}
		}
		m.periodic()
		round++
		if m.cfg.RoundHook != nil {
			m.cfg.RoundHook(round)
		}
		if m.checkTermination() {
			m.broadcast(msgStop, nil)
			return
		}
	}
}

func (m *master) handle(msg transport.Message) {
	switch msg.Type {
	case msgProgress:
		p, err := decodeProgress(msg.Payload)
		if err != nil || p.Worker < 0 || p.Worker >= m.cfg.Workers {
			return
		}
		m.reports[p.Worker] = p
		m.lastSeen[p.Worker] = time.Now()
		if m.failed[p.Worker] {
			delete(m.failed, p.Worker)
		}
		if p.AggSet {
			m.partials[p.Worker] = p.AggBytes
		}
		if p.Wave == m.wave && m.waveOpen && !m.waveOK[p.Worker] {
			// A reply to the open wave (a duplicate counts once): work or a
			// moved Activity refutes the wave.
			if p.SeedsDone && p.Inflight == 0 && p.Activity == m.waveBase[p.Worker] {
				m.waveOK[p.Worker] = true
				m.waveLeft--
			} else {
				m.waveOpen = false
			}
		}
	case msgStealReq:
		m.scheduleSteal(msg.From)
	case msgCheckpointDone:
		m.handleCkptAck(msg)
	}
}

// handleCkptAck collects per-worker checkpoint acks and commits the epoch
// to the MANIFEST once every worker acked. An epoch with any failed or
// silent worker never commits: commit means "all K files are durable",
// which is exactly what restore needs for a consistent cut.
func (m *master) handleCkptAck(msg transport.Message) {
	ack, err := decodeCkptAck(msg.Payload)
	if err != nil || ack.Epoch != m.epoch || m.ckptPending == 0 {
		return // stale ack from an abandoned or superseded epoch
	}
	if msg.From < 0 || msg.From >= m.cfg.Workers {
		return
	}
	if m.fence.stale(msg.From, ack.Gen) {
		// A zombie's ack: its slot has been claimed by a later generation.
		// Dropping it here (and re-checking in sink.commit) keeps a fenced
		// process from ever vouching for an epoch.
		m.trFence.Event(trace.EvFenced, uint64(ack.Gen)<<8|uint64(msgCheckpointDone))
		return
	}
	if _, dup := m.ckptAcks[msg.From]; dup {
		return // chaos duplication: count each worker once
	}
	if !ack.OK {
		// The worker could not snapshot or persist; the epoch can never
		// complete, so abandon it now rather than wait out the timeout.
		m.ckptPending = 0
		return
	}
	m.ckptAcks[msg.From] = ack.CRC
	m.ackGens[msg.From] = ack.Gen
	m.ckptPending--
	if m.ckptPending > 0 || len(m.ckptAcks) != m.cfg.Workers {
		return
	}
	crcs := make([]uint32, m.cfg.Workers)
	gens := make([]int64, m.cfg.Workers)
	for w, crc := range m.ckptAcks {
		crcs[w] = crc
		gens[w] = m.ackGens[w]
	}
	if m.sink != nil {
		if err := m.sink.commit(m.epoch, crcs, gens); err != nil {
			m.ckptErr = err
		}
	}
}

// scheduleSteal picks the most heavily loaded worker (largest task-store
// backlog in the progress table) and orders it to migrate Tnum tasks to
// the requesting idle worker (§6.2).
func (m *master) scheduleSteal(thief int) {
	if !m.cfg.Stealing || m.ckptPending > 0 {
		return
	}
	victim, best := -1, int64(0)
	for i, r := range m.reports {
		if r == nil || i == thief || m.failed[i] {
			continue
		}
		if r.StoreSize > best {
			victim, best = i, r.StoreSize
		}
	}
	if victim < 0 || best == 0 {
		_ = m.ep.Send(thief, msgNoTask, nil)
		return
	}
	_ = m.ep.Send(victim, msgMigrate, encodeMigrate(thief, m.cfg.StealBatch))
}

// periodic runs aggregator sync, checkpoint triggering and failure
// detection.
func (m *master) periodic() {
	// Aggregator: merge the latest partials and broadcast when changed.
	if m.agg != nil {
		merged := m.agg.Zero()
		for _, pb := range m.partials {
			if pb == nil {
				continue
			}
			v := m.agg.Decode(wire.NewReader(pb))
			merged = m.agg.Merge(merged, v)
		}
		w := wire.NewWriter(32)
		m.agg.Encode(w, merged)
		if string(w.Bytes()) != string(m.lastAggBytes) {
			m.lastAggBytes = append([]byte(nil), w.Bytes()...)
			m.broadcast(msgAggGlobal, w.Bytes())
		}
	}

	// Checkpointing.
	if m.cfg.CheckpointEvery > 0 {
		if m.ckptPending > 0 {
			// Abandon an epoch whose acks never arrive (a worker died
			// mid-checkpoint); the next epoch will supersede it.
			limit := 5 * m.cfg.CheckpointEvery
			if limit < 250*time.Millisecond {
				limit = 250 * time.Millisecond
			}
			if time.Since(m.lastCkpt) > limit {
				m.ckptPending = 0
			}
		}
		if m.ckptPending == 0 && (time.Since(m.lastCkpt) >= m.cfg.CheckpointEvery || m.barrier.Load()) {
			m.barrier.Store(false)
			m.epoch++
			// Workers already marked dead will never ack; do not wait on
			// them or the epoch stalls until the abandon timeout. (Such an
			// epoch is incomplete by construction and will not commit.)
			m.ckptPending = m.cfg.Workers - len(m.failed)
			m.ckptAcks = make(map[int]uint32)
			m.ackGens = make(map[int]int64)
			m.lastCkpt = time.Now()
			m.broadcast(msgCheckpointReq, encodeEpoch(m.epoch))
		}
	}

	// Failure detection.
	if m.cfg.FailTimeout > 0 {
		now := time.Now()
		for i := 0; i < m.cfg.Workers; i++ {
			if m.failed[i] || m.lastSeen[i].IsZero() {
				continue
			}
			if now.Sub(m.lastSeen[i]) > m.cfg.FailTimeout {
				m.failed[i] = true
				m.recovered = true
				m.waveOpen = false
				// A dead worker's checkpoint ack will never arrive: abandon
				// the in-flight epoch now instead of letting it freeze task
				// stealing and termination until the ack timeout expires.
				m.ckptPending = 0
				if m.failures != nil {
					select {
					case m.failures <- i:
					default:
					}
				}
			}
		}
	}
}

// requestBarrier asks the master to trigger a checkpoint on its next
// periodic pass regardless of the interval clock. Safe from any
// goroutine. A no-op when the job runs with checkpointing disabled
// (CheckpointEvery == 0): there is no manifest to commit to, and the
// caller must not wait on one.
func (m *master) requestBarrier() {
	m.barrier.Store(true)
}

// committedEpoch returns the newest committed epoch, or noEpoch when
// nothing has committed (or the job has no sink).
func (m *master) committedEpoch() int64 {
	if m.sink == nil {
		return noEpoch
	}
	if man := m.sink.manifestView(); man != nil {
		return man.Epoch
	}
	return noEpoch
}

// checkTermination is a counting detector (Mattern's four-counter method,
// argued in DESIGN.md §5). When the latest reports show every worker idle
// with as many tasks migrated in as out, it broadcasts a probe wave; the
// job has terminated once every worker answered the wave idle with its
// Activity unchanged since the report the wave was based on. A wave
// unanswered for waveWait is replaced, and waveWait doubles, so lost or
// slow control messages delay the end but never bring it early.
func (m *master) checkTermination() bool {
	if _, held := heldJobs.Load(m.cfg.JobID); held || m.ckptPending > 0 {
		return false
	}
	if m.waveOpen {
		if m.waveLeft == 0 {
			return true
		}
		if time.Since(m.waveAt) < m.waveWait {
			return false
		}
		m.waveWait *= 2
	}
	m.waveOpen = false
	var sent, recv int64
	for i, r := range m.reports {
		if r == nil || m.failed[i] || !r.SeedsDone || r.Inflight != 0 {
			return false
		}
		sent += r.TasksSent
		recv += r.TasksRecv
	}
	if sent != recv && !m.recovered {
		return false
	}
	m.wave++
	m.waveOpen = true
	m.waveAt = time.Now()
	m.waveLeft = m.cfg.Workers
	for i, r := range m.reports {
		m.waveBase[i] = r.Activity
		m.waveOK[i] = false
	}
	m.broadcast(msgProbe, encodeEpoch(m.wave))
	return false
}

// heldJobs holds the IDs of jobs whose termination tests veto (HoldJob);
// empty outside tests.
var heldJobs sync.Map

func (m *master) broadcast(typ uint8, payload []byte) {
	for i := 0; i < m.cfg.Workers; i++ {
		_ = m.ep.Send(i, typ, payload)
	}
}

// globalAgg returns the final merged aggregator value.
func (m *master) globalAgg() any {
	if m.agg == nil {
		return nil
	}
	merged := m.agg.Zero()
	for _, pb := range m.partials {
		if pb == nil {
			continue
		}
		merged = m.agg.Merge(merged, m.agg.Decode(wire.NewReader(pb)))
	}
	return merged
}

func (m *master) stop() {
	select {
	case <-m.stopCh:
	default:
		close(m.stopCh)
	}
}
