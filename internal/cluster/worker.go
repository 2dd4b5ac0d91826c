package cluster

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/cache"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/spill"
	"gminer/internal/store"
	"gminer/internal/trace"
	"gminer/internal/transport"
	"gminer/internal/wire"
)

// pendingTask is one CMQ entry: a task waiting for `remaining` remote
// candidate vertices to arrive.
type pendingTask struct {
	t         *core.Task
	remaining int
}

// pullWork is one incoming pull request queued for the serve pool.
type pullWork struct {
	from    int
	payload []byte
}

// pullState tracks one in-flight vertex pull: the tasks waiting for it,
// when it was (last) requested for the RTT metric, and the retry/backoff
// state used when the request or response is lost to a crashed worker or
// a lossy network.
type pullState struct {
	waiters     []*pendingTask
	requestedAt time.Time
	retryAt     time.Time // next re-request time (exponential backoff)
	attempts    int       // retries so far
	owner       int       // last resolved owner (re-resolved on retry)
}

// Worker is one slave node (§5.1): it owns a graph partition (vertex
// table), runs the task pipeline of Figure 2, serves pull requests from
// other workers (request listener) and reports progress to the master.
type Worker struct {
	id   int
	cfg  Config
	algo core.Algorithm
	agg  core.Aggregator // nil when the algorithm has no aggregator
	ep   transport.Endpoint

	assign    *partition.Assignment
	local     map[graph.VertexID]*graph.Vertex // local vertex table
	localIDs  []graph.VertexID                 // seed scan order
	graphFoot int64

	store   *store.Store
	cache   *cache.RCV
	cpq     *taskQueue
	buffer  *taskBuffer
	spiller *spill.Spiller

	counters *metrics.Counters

	// CMQ state.
	pendMu       sync.Mutex
	pendCond     *sync.Cond
	pulls        map[graph.VertexID]*pullState
	pendingTasks int
	// pullBatch accumulates pull requests per destination so many tasks'
	// pulls ride one message ("for efficient network transmission", the
	// same batching §6.2 applies to task migration).
	pullBatch map[int][]graph.VertexID
	pullCount int
	// pullSpare is the previous flush's batch map, kept (with its
	// per-owner slices truncated) so steady-state flushing allocates
	// neither the map nor the slices.
	pullSpare map[int][]graph.VertexID
	// retryRng jitters pull-retry backoff so a lost batch does not come
	// back as a synchronized burst. Guarded by pendMu.
	retryRng *rand.Rand

	// Progress counters. inflight, activity, tasksSent and tasksRecv change
	// under progMu's read lock, so report (write lock) never sees half of
	// an intake, death or migration: termination relies on that.
	progMu     sync.RWMutex
	inflight   atomic.Int64 // alive tasks owned by this worker
	activity   atomic.Int64 // bumps on intake/death/migration
	tasksSent  atomic.Int64
	tasksRecv  atomic.Int64
	seedsDone  atomic.Bool
	seedCursor atomic.Int64
	wake       chan struct{} // a task entered the buffer (the idle retriever waits)
	quiet      chan struct{} // a task left the executor (a quiescing checkpoint waits)

	// Aggregator state.
	aggMu      sync.Mutex
	aggPartial any
	aggGlobal  any

	// Output collector.
	resMu   sync.Mutex
	results []string

	stealBackoff atomic.Int32

	// pullServe feeds the pull-serve worker pool: the comm loop enqueues
	// incoming pull requests and pullServeWorkers goroutines encode and
	// send the responses, so one expensive neighborhood read cannot
	// head-of-line-block every other requester.
	pullServe chan pullWork

	// pauseMu pauses the seeder and the retriever for a checkpoint, which
	// holds it (and sets paused) from quiesce to snapshot; each takes it
	// shared for one step (seed a vertex, pop a task).
	pauseMu sync.RWMutex
	paused  atomic.Bool
	killed  atomic.Bool // failure simulation: drop all work silently
	// ckptErr is the most recent checkpoint failure (surfaced on
	// cluster.Result so operators see degraded durability, not silence).
	ckptMu   sync.Mutex
	ckptErr  error
	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	nextTaskID atomic.Uint64

	masterNode  int
	snapshots   *snapshotSink
	stealPolicy StealPolicy

	// Memory budget (Config.MemBudget): budgetCharged is what this worker
	// currently has charged (store + cache bytes; only touched from the
	// progress loop), oomFn aborts the job when a charge overflows.
	budgetCharged int64
	oomFn         func(error)

	// Trace handles, one per pipeline component (zero handles drop
	// everything when Config.Tracer is nil).
	trSeed  trace.Handle
	trRetr  trace.Handle
	trExec  trace.Handle
	trSteal trace.Handle
	trCkpt  trace.Handle
	// lastStealReq is when this worker last sent a steal REQ (UnixNano),
	// for the thief-side migration latency histogram. 0 = none pending.
	lastStealReq atomic.Int64
}

// localTable is one worker's partition view: the vertex table (the hash
// table of Figure 4) plus the hash-shuffled seed scan order. It is
// read-only after build, so a Session shares one instance across every
// job's worker i instead of rebuilding it per job.
type localTable struct {
	vertices  map[graph.VertexID]*graph.Vertex
	ids       []graph.VertexID
	footprint int64
}

// buildLocalTable loads worker id's partition from the shared frozen graph.
func buildLocalTable(g *graph.Graph, assign *partition.Assignment, id int) *localTable {
	ids := assign.Local(g, id)
	lt := &localTable{
		vertices: make(map[graph.VertexID]*graph.Vertex, len(ids)),
		ids:      ids,
	}
	for _, vid := range ids {
		v := g.Vertex(vid)
		lt.vertices[vid] = v
		lt.footprint += v.FootprintBytes()
	}
	// The vertex table is a hash table in the original system, so the task
	// generator's scan order carries no ID locality; replicate that with a
	// deterministic hash-shuffle. (Consecutive IDs in synthetic graphs
	// share neighborhoods, which would otherwise gift the non-LSH queue an
	// unrealistically good access pattern.)
	sort.Slice(lt.ids, func(i, j int) bool {
		return lsh.HashID(uint64(lt.ids[i])) < lsh.HashID(uint64(lt.ids[j]))
	})
	return lt
}

// newWorker builds worker `id` over the shared frozen graph. local, if
// non-nil, is a prebuilt partition view (warm sessions); restore, if
// non-nil, is a checkpoint snapshot to resume from.
func newWorker(id int, cfg Config, algo core.Algorithm, g *graph.Graph,
	assign *partition.Assignment, local *localTable, ep transport.Endpoint,
	counters *metrics.Counters, snapshots *snapshotSink, restore *workerSnapshot) (*Worker, error) {

	w := &Worker{
		id:         id,
		cfg:        cfg,
		algo:       algo,
		ep:         ep,
		assign:     assign,
		counters:   counters,
		stopCh:     make(chan struct{}),
		masterNode: cfg.Workers,
		pulls:      make(map[graph.VertexID]*pullState),
		pullBatch:  make(map[int][]graph.VertexID),
		retryRng:   rand.New(rand.NewSource(0xfa17 + int64(id))),
		snapshots:  snapshots,
		wake:       make(chan struct{}, 1),
		quiet:      make(chan struct{}, 1),
	}
	w.pendCond = sync.NewCond(&w.pendMu)
	w.trSeed = cfg.Tracer.Handle(id, trace.CompSeeder)
	w.trRetr = cfg.Tracer.Handle(id, trace.CompRetriever)
	w.trExec = cfg.Tracer.Handle(id, trace.CompExecutor)
	w.trSteal = cfg.Tracer.Handle(id, trace.CompSteal)
	w.trCkpt = cfg.Tracer.Handle(id, trace.CompCheckpoint)
	w.stealPolicy = cfg.StealPolicy
	if w.stealPolicy == nil {
		w.stealPolicy = CostPolicy{Tc: stealCostMax, Tr: stealLocalityMax}
	}
	if ap, ok := algo.(core.AggregatorProvider); ok {
		w.agg = ap.Aggregator()
		w.aggPartial = w.agg.Zero()
		w.aggGlobal = w.agg.Zero()
	}

	// Load the local partition: the graph loader + vertex table of Fig. 4.
	// Warm sessions prebuild the table once and share it across jobs.
	if local == nil {
		local = buildLocalTable(g, assign, id)
	}
	w.local = local.vertices
	w.localIDs = local.ids
	w.graphFoot = local.footprint

	spillDir := cfg.SpillDir
	if spillDir != "" {
		// The JobID segment keeps concurrent jobs' spill files apart; it is
		// empty (a no-op path segment) in single-shot mode.
		spillDir = filepath.Join(spillDir, cfg.JobID, fmt.Sprintf("worker-%d", id))
	}
	sp, err := spill.New(spillDir, counters)
	if err != nil {
		return nil, err
	}
	w.spiller = sp
	sp.SetTrace(cfg.Tracer.Handle(id, trace.CompSpill))
	lshDims := 0
	if cfg.UseLSH {
		lshDims = cfg.LSHDims
	}
	w.store = store.New(store.Config{
		MemCapacity:   cfg.StoreMemCapacity,
		BlockCapacity: cfg.StoreBlockCapacity,
		LSHDims:       lshDims,
		Seed:          0x5eed + uint64(id),
	}, algo, sp, counters)
	w.cache = cache.NewSharded(cfg.CacheCapacity, cfg.CacheShards, counters)
	w.cache.SetTrace(cfg.Tracer.Handle(id, trace.CompCache))
	w.cpq = newTaskQueue()
	w.buffer = newTaskBuffer(bufferFlush)

	// Task IDs: high byte is the origin worker for global uniqueness.
	w.nextTaskID.Store(uint64(id) << 48)

	if restore != nil {
		if err := w.applySnapshot(restore); err != nil {
			// Nothing was mutated (the snapshot decodes before any intake);
			// release the resources this half-built worker holds so the
			// caller can retry with an older epoch or a fresh worker.
			w.stop()
			w.spiller.Close()
			return nil, err
		}
	}
	return w, nil
}

// start launches the pipeline goroutines.
func (w *Worker) start() {
	loops := []func(){w.commLoop, w.retrieverLoop, w.seederLoop, w.progressLoop}
	for i := 0; i < w.cfg.Threads; i++ {
		loops = append(loops, w.executorLoop)
	}
	w.pullServe = make(chan pullWork, 4*pullServeWorkers)
	for i := 0; i < pullServeWorkers; i++ {
		loops = append(loops, w.pullServeLoop)
	}
	w.wg.Add(len(loops))
	for _, loop := range loops {
		go func(f func()) {
			defer w.wg.Done()
			f()
		}(loop)
	}
}

// stop shuts the pipeline down (idempotent).
func (w *Worker) stop() {
	w.stopOnce.Do(func() {
		close(w.stopCh)
		w.store.Close()
		w.cpq.close()
		w.cache.Close()
		w.pendMu.Lock()
		w.pendCond.Broadcast()
		w.pendMu.Unlock()
	})
}

// kill simulates a machine crash: all loops exit without flushing or
// notifying anyone, and all state is abandoned.
func (w *Worker) kill() {
	w.killed.Store(true)
	w.stop()
}

func (w *Worker) stopped() bool {
	select {
	case <-w.stopCh:
		return true
	default:
		return false
	}
}

// assignID gives a task a globally unique ID.
func (w *Worker) assignID(t *core.Task) {
	t.ID = w.nextTaskID.Add(1)
}

// intake admits a task into the pipeline: computes its to_pull set and
// buffers it toward the task store. migrated marks tasks received via
// task stealing.
func (w *Worker) intake(t *core.Task, migrated bool) {
	w.progMu.RLock()
	w.inflight.Add(1)
	w.activity.Add(1)
	if migrated {
		w.tasksRecv.Add(1)
	}
	w.progMu.RUnlock()
	w.computeToPull(t)
	if batch := w.buffer.add(t); batch != nil {
		w.flushBatch(batch)
	}
	notify(w.wake)
}

func (w *Worker) flushBatch(batch []*core.Task) {
	if len(batch) == 0 {
		return
	}
	if err := w.store.Insert(batch); err != nil {
		// Store closed: the job is shutting down; drop silently.
		return
	}
}

// computeToPull fills t.ToPull with the deduplicated candidates that are
// not in the local partition. Candidates owned by nobody (dangling IDs)
// are excluded — they resolve to nil at update time.
func (w *Worker) computeToPull(t *core.Task) {
	t.ToPull = t.ToPull[:0]
	seen := make(map[graph.VertexID]struct{}, len(t.Cands))
	for _, id := range t.Cands {
		if _, ok := w.local[id]; ok {
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if w.assign.Owner(id) < 0 {
			continue
		}
		t.ToPull = append(t.ToPull, id)
	}
}

// ---------------------------------------------------------------------------
// Seeder: the task generator of Figure 4, streaming seeds into the pipeline.

func (w *Worker) seederLoop() {
	// Seed (algorithm code) runs outside pauseMu; its tasks enter the
	// pipeline with the cursor move, as one step.
	var seeds []*core.Task
	spawn := func(t *core.Task) { seeds = append(seeds, t) }
	for i := int(w.seedCursor.Load()); i < len(w.localIDs); i++ {
		if w.stopped() {
			return
		}
		if !w.cfg.EagerSeeding {
			// Streaming seeding (extension, §9): backpressure against the
			// task store so seeds do not all materialize up front.
			w.store.WaitBelow(2 * w.cfg.StoreMemCapacity)
		}
		w.algo.Seed(w.local[w.localIDs[i]], spawn)
		w.pauseMu.RLock()
		for _, t := range seeds {
			w.assignID(t)
			w.trSeed.Event(trace.EvTaskSeed, t.ID)
			w.intake(t, false)
		}
		w.seedCursor.Store(int64(i + 1))
		w.pauseMu.RUnlock()
		seeds = seeds[:0]
	}
	w.pauseMu.RLock()
	w.seedsDone.Store(true)
	w.flushBatch(w.buffer.drain())
	w.pauseMu.RUnlock()
	if w.inflight.Load() == 0 {
		w.report(0) // idle at once: tell the master without waiting a tick
	}
}

// ---------------------------------------------------------------------------
// Candidate retriever (Figure 2): dequeues inactive tasks from the task
// store, satisfies candidates from the RCV cache, and issues pull requests
// for the rest; tasks whose pulls are all satisfied go to the CPQ.

func (w *Worker) retrieverLoop() {
	for !w.stopped() {
		// Backpressure: bound ready tasks and in-flight pull tasks so the
		// references they hold cannot overflow the cache without bound.
		w.flushPulls()
		w.cpq.waitBelow(w.cfg.CPQHighWater)
		w.waitPendingBelow(w.cfg.MaxPendingPulls)
		if t, ok := w.take(); ok {
			w.dispatch(t)
			continue
		}
		// Nothing to dispatch: push out whatever requests are queued, then
		// sleep until a task is buffered.
		w.flushPulls()
		select {
		case <-w.wake:
		case <-w.stopCh:
		}
	}
}

// take pops the next stored task, refilling a dry store from the buffer.
func (w *Worker) take() (*core.Task, bool) {
	w.pauseMu.RLock()
	defer w.pauseMu.RUnlock()
	if t, ok := w.store.TryPop(); ok {
		return t, true
	}
	w.flushBatch(w.buffer.drain())
	return w.store.TryPop()
}

func (w *Worker) waitPendingBelow(n int) {
	w.pendMu.Lock()
	for w.pendingTasks >= n && !w.stopped() {
		w.pendCond.Wait()
	}
	w.pendMu.Unlock()
}

// dispatch resolves one task's remote candidates against the cache and
// either readies it or parks it in the CMQ behind batched pull requests.
func (w *Worker) dispatch(t *core.Task) {
	if len(t.ToPull) == 0 {
		t.SetStatus(core.StatusReady)
		w.trRetr.Event(trace.EvTaskReady, t.ID)
		w.cpq.push(t)
		return
	}
	pt := &pendingTask{t: t}
	w.pendMu.Lock()
	for _, id := range t.ToPull {
		if _, ok := w.cache.Acquire(id); ok {
			continue // reference held until the round completes
		}
		pt.remaining++
		ps, inFlight := w.pulls[id]
		if !inFlight {
			owner := w.assign.Owner(id)
			now := time.Now()
			ps = &pullState{requestedAt: now, retryAt: now.Add(w.retryDelay(0)), owner: owner}
			w.pulls[id] = ps
			w.pullBatch[owner] = append(w.pullBatch[owner], id)
			w.pullCount++
		}
		ps.waiters = append(ps.waiters, pt)
	}
	if pt.remaining == 0 {
		w.pendMu.Unlock()
		t.SetStatus(core.StatusReady)
		w.trRetr.Event(trace.EvTaskReady, t.ID)
		w.cpq.push(t)
		return
	}
	w.pendingTasks++
	flush := w.pullCount >= bufferFlush
	// pt is visible to handlePullResp once pendMu drops; read remaining now.
	parked := pt.remaining
	w.pendMu.Unlock()
	w.trRetr.Event(trace.EvCMQBatch, uint64(parked))
	if flush {
		w.flushPulls()
	}
}

// flushPulls sends the accumulated per-destination pull requests. The
// batch map and its per-owner slices are recycled between flushes (the
// owner set is bounded by the cluster size, so retained keys with
// truncated slices cost nothing), and requests are encoded into pooled
// buffers — steady-state flushing is allocation-free.
func (w *Worker) flushPulls() {
	w.pendMu.Lock()
	if w.pullCount == 0 {
		w.pendMu.Unlock()
		return
	}
	batch := w.pullBatch
	if w.pullSpare != nil {
		w.pullBatch = w.pullSpare
		w.pullSpare = nil
	} else {
		w.pullBatch = make(map[int][]graph.VertexID, len(batch))
	}
	w.pullCount = 0
	w.pendMu.Unlock()
	for owner, ids := range batch {
		if len(ids) == 0 {
			continue // recycled key from an earlier flush
		}
		w.trRetr.Event(trace.EvPullIssued, uint64(len(ids)))
		wr := wire.GetWriter(16 + 4*len(ids))
		encodePullReqInto(wr, ids)
		_ = w.ep.Send(owner, msgPullReq, wr.Bytes())
		wire.PutWriter(wr)
		batch[owner] = ids[:0]
	}
	w.pendMu.Lock()
	if w.pullSpare == nil {
		w.pullSpare = batch
	}
	w.pendMu.Unlock()
}

// handlePullResp resolves arrived vertices against CMQ waiters.
func (w *Worker) handlePullResp(payload []byte) {
	entries, err := decodePullResp(payload)
	if err != nil {
		return
	}
	var ready []*core.Task
	var now time.Time
	if w.trRetr.Active() {
		now = time.Now()
	}
	w.pendMu.Lock()
	for _, pv := range entries {
		ps, ok := w.pulls[pv.ID]
		if !ok || len(ps.waiters) == 0 {
			continue // duplicate response (e.g. a retry raced the original)
		}
		if !now.IsZero() {
			w.trRetr.Observe(trace.MetricPullRTT, now.Sub(ps.requestedAt))
		}
		delete(w.pulls, pv.ID)
		if pv.Present {
			// First waiter's reference comes from the insert; each
			// additional waiter acquires its own.
			if !w.cache.TryInsert(pv.V) {
				w.cache.ForceInsert(pv.V)
			}
			for range ps.waiters[1:] {
				w.cache.Acquire(pv.ID)
			}
		}
		for _, pt := range ps.waiters {
			pt.remaining--
			if pt.remaining == 0 {
				w.pendingTasks--
				ready = append(ready, pt.t)
			}
		}
	}
	w.pendCond.Broadcast()
	w.pendMu.Unlock()
	w.trRetr.Event(trace.EvPullAnswered, uint64(len(entries)))
	for _, t := range ready {
		t.SetStatus(core.StatusReady)
		w.trRetr.Event(trace.EvTaskReady, t.ID)
		w.cpq.push(t)
	}
}

// retryDelay is the wait before retry number `attempts` of a pull:
// exponential from PullRetryBase, capped at pullRetryMaxFactor times it,
// with ±25% jitter so a lost batch does not retry as one synchronized
// burst.
// Caller holds pendMu (the RNG is not otherwise synchronized).
func (w *Worker) retryDelay(attempts int) time.Duration {
	d, max := w.cfg.PullRetryBase, pullRetryMaxFactor*w.cfg.PullRetryBase
	for i := 0; i < attempts && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if half := int64(d) / 2; half > 0 {
		d = d*3/4 + time.Duration(w.retryRng.Int63n(half))
	}
	return d
}

// retryStalePulls re-issues pull requests whose responses are overdue
// (request or response lost to a crashed worker or a lossy network).
// Each retry re-resolves the vertex owner instead of trusting the
// snapshot taken at request time: after a failure + recovery the owner
// assignment is re-read, so a stale snapshot could target the wrong
// node forever. Retries back off exponentially with jitter (capped) so
// a dead owner is probed, not hammered.
func (w *Worker) retryStalePulls() {
	now := time.Now()
	need := make(map[int][]graph.VertexID)
	w.pendMu.Lock()
	for id, ps := range w.pulls {
		if now.Before(ps.retryAt) {
			continue
		}
		ps.attempts++
		if owner := w.assign.Owner(id); owner >= 0 {
			ps.owner = owner
		}
		ps.requestedAt = now
		ps.retryAt = now.Add(w.retryDelay(ps.attempts))
		need[ps.owner] = append(need[ps.owner], id)
	}
	w.pendMu.Unlock()
	for owner, ids := range need {
		w.trRetr.Event(trace.EvPullRetry, uint64(len(ids)))
		wr := wire.GetWriter(16 + 4*len(ids))
		encodePullReqInto(wr, ids)
		_ = w.ep.Send(owner, msgPullReq, wr.Bytes())
		wire.PutWriter(wr)
	}
}

// ---------------------------------------------------------------------------
// Task executor (Figure 2): a pool of computing threads running update
// rounds on ready tasks.

func (w *Worker) executorLoop() {
	for {
		t, ok := w.cpq.pop()
		if !ok {
			return
		}
		if w.stopped() {
			// Cancellation drain: the queue is closed and being emptied;
			// drop remaining ready tasks instead of running more rounds.
			// (On a clean termination the queue is empty by construction,
			// so this branch only fires on cancel/kill.)
			continue
		}
		w.runTask(t)
		if w.paused.Load() {
			notify(w.quiet) // the task left the executor: a checkpoint may be waiting on it
		}
	}
}

// runTask executes update rounds until the task dies or needs remote
// candidates. A task whose next-round candidates are all local "directly
// enters the next round of update without any status change" (§4.2).
func (w *Worker) runTask(t *core.Task) {
	for {
		t.SetStatus(core.StatusActive)
		if t.Round == 0 {
			t.Round = 1 // first update round after seeding (§4.2)
		}
		start := time.Now()
		cands := w.resolve(t.Cands)
		w.algo.Update(t, cands, w)
		w.counters.AddBusy(time.Since(start))
		// Reuses the busy-time timestamps: a disabled tracer adds no clock
		// reads to the round loop.
		w.trExec.ObserveSpan(trace.MetricTaskRound, trace.EvTaskActive, start, t.ID)

		next, children := t.TakeTransition()
		if len(t.ToPull) > 0 {
			w.cache.Release(t.ToPull...)
			t.ToPull = t.ToPull[:0]
		}
		if len(children) > 0 {
			w.trExec.Event(trace.EvTaskSplit, uint64(len(children)))
		}
		for _, c := range children {
			w.assignID(c)
			c.SetStatus(core.StatusInactive)
			w.intake(c, false)
		}
		if next == nil {
			t.SetStatus(core.StatusDead)
			w.taskDead(t)
			return
		}
		t.Advance(next)
		w.computeToPull(t)
		if len(t.ToPull) > 0 {
			t.SetStatus(core.StatusInactive)
			w.trExec.Event(trace.EvTaskInactive, t.ID)
			if batch := w.buffer.add(t); batch != nil {
				w.flushBatch(batch)
			}
			notify(w.wake)
			return
		}
		if w.stopped() {
			return
		}
	}
}

func (w *Worker) taskDead(t *core.Task) {
	w.progMu.RLock()
	left := w.inflight.Add(-1)
	w.activity.Add(1)
	w.progMu.RUnlock()
	w.counters.TaskDone()
	w.trExec.Event(trace.EvTaskDead, t.ID)
	if obs, ok := w.stealPolicy.(TaskObserver); ok {
		obs.ObserveCompleted(t.CostC())
	}
	if left == 0 && w.seedsDone.Load() {
		w.report(0) // idle: tell the master without waiting a tick
	}
}

// resolve maps candidate IDs to vertex objects: local partition first,
// then the RCV cache; unknown IDs yield nil.
func (w *Worker) resolve(ids []graph.VertexID) []*graph.Vertex {
	out := make([]*graph.Vertex, len(ids))
	for i, id := range ids {
		if v, ok := w.local[id]; ok {
			out[i] = v
			continue
		}
		if v, ok := w.cache.Peek(id); ok {
			out[i] = v
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Communication loop: the request listener of Figure 4 plus all control
// message handling.

func (w *Worker) commLoop() {
	for {
		m, ok := w.ep.Recv()
		if !ok || w.killed.Load() {
			return
		}
		switch m.Type {
		case msgPullReq:
			select {
			case w.pullServe <- pullWork{from: m.From, payload: m.Payload}:
			case <-w.stopCh:
				return
			}
		case msgPullResp:
			w.handlePullResp(m.Payload)
		case msgMigrate:
			w.handleMigrate(m.Payload)
		case msgTasks:
			w.handleTasks(m.Payload)
		case msgNoTask:
			w.trSteal.Event(trace.EvStealNoTask, 0)
			w.lastStealReq.Store(0)
			w.stealBackoff.Store(8)
		case msgAggGlobal:
			w.handleAggGlobal(m.Payload)
		case msgCheckpointReq:
			if epoch, err := decodeEpoch(m.Payload); err == nil {
				// Tracked in wg so job teardown can prove no checkpoint
				// goroutine outlives the job (leak-checked reruns).
				w.wg.Add(1)
				go func() {
					defer w.wg.Done()
					w.checkpoint(epoch)
				}()
			}
		case msgStop:
			w.stop()
			return
		case msgProbe:
			if wave, err := decodeEpoch(m.Payload); err == nil {
				w.report(wave)
			}
		}
	}
}

// pullServeLoop drains the pull-serve queue; several of these run per
// worker so responses to different requesters are encoded and sent
// concurrently.
func (w *Worker) pullServeLoop() {
	for {
		select {
		case <-w.stopCh:
			return
		case req := <-w.pullServe:
			w.servePull(req.from, req.payload)
		}
	}
}

// servePull answers a pull request from another worker with the requested
// vertices from the local vertex table. The response is encoded into a
// pooled buffer: Send copies the payload, so the buffer goes straight
// back to the pool.
func (w *Worker) servePull(from int, payload []byte) {
	ids, err := decodePullReq(payload)
	if err != nil {
		return
	}
	found := make([]*graph.Vertex, 0, len(ids))
	var missing []graph.VertexID
	for _, id := range ids {
		if v, ok := w.local[id]; ok {
			found = append(found, v)
		} else {
			missing = append(missing, id)
		}
	}
	wr := wire.GetWriter(64 + 32*len(ids))
	encodePullRespInto(wr, found, missing)
	_ = w.ep.Send(from, msgPullResp, wr.Bytes())
	wire.PutWriter(wr)
}

// handleMigrate serves a MIGRATE order from the master: steal up to Tnum
// eligible tasks from the task store and ship them to the thief.
func (w *Worker) handleMigrate(payload []byte) {
	thief, tnum, err := decodeMigrate(payload)
	if err != nil {
		return
	}
	tasks := w.store.Steal(tnum, w.stealPolicy.Eligible)
	if len(tasks) == 0 {
		w.trSteal.Event(trace.EvStealNoTask, 0)
		_ = w.ep.Send(thief, msgNoTask, nil)
		return
	}
	w.trSteal.Event(trace.EvStealMigrate, uint64(len(tasks)))
	wr := wire.GetWriter(256 * len(tasks))
	encodeTasksInto(wr, tasks, w.algo)
	w.progMu.RLock()
	left := w.inflight.Add(-int64(len(tasks)))
	w.activity.Add(int64(len(tasks)))
	w.tasksSent.Add(int64(len(tasks)))
	w.progMu.RUnlock()
	for range tasks {
		w.counters.TaskStolen()
	}
	_ = w.ep.Send(thief, msgTasks, wr.Bytes())
	wire.PutWriter(wr)
	if left == 0 && w.seedsDone.Load() {
		w.report(0) // idle: tell the master without waiting a tick
	}
}

// handleTasks admits a migration batch.
func (w *Worker) handleTasks(payload []byte) {
	tasks, err := decodeTasks(payload, w.algo)
	if err != nil {
		return
	}
	if at := w.lastStealReq.Swap(0); at != 0 && w.trSteal.Active() {
		w.trSteal.Observe(trace.MetricMigration, time.Duration(time.Now().UnixNano()-at))
	}
	for _, t := range tasks {
		w.intake(t, true)
	}
	if w.paused.Load() {
		notify(w.quiet) // the batch sits in the buffer until the checkpoint drains it
	}
}

func (w *Worker) handleAggGlobal(payload []byte) {
	if w.agg == nil {
		return
	}
	r := wire.NewReader(payload)
	v := w.agg.Decode(r)
	w.aggMu.Lock()
	w.aggGlobal = v
	w.aggMu.Unlock()
}

// ---------------------------------------------------------------------------
// Progress reporting, idle detection and steal requests.

func (w *Worker) progressLoop() {
	ticker := time.NewTicker(w.cfg.ProgressInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ticker.C:
		}
		w.retryStalePulls()
		w.observeMemory()
		w.report(0)

		if w.cfg.Stealing && w.seedsDone.Load() && w.inflight.Load() == 0 {
			if w.stealBackoff.Load() > 0 {
				w.stealBackoff.Add(-1)
			} else {
				if w.trSteal.Active() {
					w.trSteal.Event(trace.EvStealReq, 0)
					w.lastStealReq.CompareAndSwap(0, time.Now().UnixNano())
				}
				_ = w.ep.Send(w.masterNode, msgStealReq, nil)
			}
		}
	}
}

// report sends the master a progress report; wave is the probe wave it
// answers (0 = unsolicited). A killed worker stays silent.
func (w *Worker) report(wave int64) {
	if w.killed.Load() {
		return
	}
	// SeedsDone first: once true, the counters include every seed.
	rep := &progressReport{
		Worker:    w.id,
		SeedsDone: w.seedsDone.Load(),
		StoreSize: int64(w.store.Size()),
		Results:   int64(w.resultCount()),
		Wave:      wave,
	}
	w.progMu.Lock()
	rep.Inflight = w.inflight.Load()
	rep.TasksSent = w.tasksSent.Load()
	rep.TasksRecv = w.tasksRecv.Load()
	rep.Activity = w.activity.Load()
	w.progMu.Unlock()
	var aggW *wire.Writer
	if w.agg != nil {
		aggW = wire.GetWriter(32)
		w.aggMu.Lock()
		w.agg.Encode(aggW, w.aggPartial)
		w.aggMu.Unlock()
		rep.AggSet = true
		rep.AggBytes = aggW.Bytes()
	}
	pw := wire.GetWriter(64 + len(rep.AggBytes))
	encodeProgressInto(pw, rep)
	_ = w.ep.Send(w.masterNode, msgProgress, pw.Bytes())
	wire.PutWriter(pw)
	if aggW != nil {
		wire.PutWriter(aggW)
	}
}

// observeMemory refreshes this worker's live-memory estimate: graph
// partition + in-memory task store + RCV cache. Job-owned bytes (store +
// cache, not the shared resident graph) are also charged against the job's
// memory budget when one is set; overflowing it aborts the job instead of
// letting it starve co-resident jobs.
func (w *Worker) observeMemory() {
	owned := w.store.MemBytes() + w.cache.Bytes()
	w.counters.ObserveLive(w.graphFoot + owned)
	if w.cfg.MemBudget == nil {
		return
	}
	delta := owned - w.budgetCharged
	w.budgetCharged = owned
	if delta < 0 {
		w.cfg.MemBudget.Release(-delta)
		return
	}
	if err := w.cfg.MemBudget.Charge(delta); err != nil && w.oomFn != nil {
		w.oomFn(fmt.Errorf("worker %d: %w", w.id, err))
	}
}

func (w *Worker) resultCount() int {
	w.resMu.Lock()
	defer w.resMu.Unlock()
	return len(w.results)
}

// takeResults returns the output records (job collection).
func (w *Worker) takeResults() []string {
	w.resMu.Lock()
	defer w.resMu.Unlock()
	return append([]string(nil), w.results...)
}

// aggPartialValue returns the worker's current aggregator partial.
func (w *Worker) aggPartialValue() any {
	w.aggMu.Lock()
	defer w.aggMu.Unlock()
	return w.aggPartial
}

// ---------------------------------------------------------------------------
// core.Env implementation (what Seed/Update can reach).

// WorkerID implements core.Env.
func (w *Worker) WorkerID() int { return w.id }

// NumWorkers implements core.Env.
func (w *Worker) NumWorkers() int { return w.cfg.Workers }

// Emit implements core.Env.
func (w *Worker) Emit(record string) {
	w.resMu.Lock()
	w.results = append(w.results, record)
	w.resMu.Unlock()
	w.counters.EmitResult()
}

// AggUpdate implements core.Env.
func (w *Worker) AggUpdate(v any) {
	if w.agg == nil {
		return
	}
	w.aggMu.Lock()
	w.aggPartial = w.agg.Add(w.aggPartial, v)
	w.aggMu.Unlock()
}

// AggGlobal implements core.Env.
func (w *Worker) AggGlobal() any {
	if w.agg == nil {
		return nil
	}
	w.aggMu.Lock()
	defer w.aggMu.Unlock()
	// The freshest view a worker has is its own partial merged with the
	// last broadcast global.
	return w.agg.Merge(w.aggGlobal, w.aggPartial)
}

// LocalVertex implements core.Env.
func (w *Worker) LocalVertex(id graph.VertexID) *graph.Vertex {
	return w.local[id]
}
