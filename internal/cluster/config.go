package cluster

import (
	"time"

	"gminer/internal/cache"
	"gminer/internal/chaos"
	"gminer/internal/memctl"
	"gminer/internal/partition"
	"gminer/internal/trace"
)

// Config controls a G-Miner job. Zero values are filled by Defaults.
type Config struct {
	// Workers is the number of worker nodes (the paper's slaves).
	Workers int
	// Threads is the number of computing threads per worker (the task
	// executor's thread pool, §4.3).
	Threads int

	// JobID namespaces everything a job owns when many jobs share a
	// process: spill and checkpoint directories, metrics labels and log
	// lines. Sessions assign one automatically; a single-shot job (Start,
	// Run) keeps it empty and writes directly under SpillDir and
	// CheckpointDir.
	JobID string

	// MemBudget, if non-nil, bounds the job-owned memory across all
	// workers (task store + RCV cache; the resident graph is not charged —
	// in a serving deployment it is shared by every job). Exceeding the
	// budget cancels the job with an error wrapping memctl.ErrOOM instead
	// of letting one greedy job take down co-resident ones.
	MemBudget *memctl.Budget

	// CacheCapacity is the RCV cache size in vertices per worker.
	CacheCapacity int
	// CacheShards is the RCV cache shard count per worker (rounded down
	// to a power of two). 1 reproduces the paper's single-lock cache;
	// higher counts let executor threads and the pull-response path work
	// on disjoint shards without contending. Default cache.DefaultShards.
	CacheShards int
	// StoreMemCapacity is the number of inactive tasks a worker keeps in
	// memory before the task store spills blocks to disk.
	StoreMemCapacity int
	// StoreBlockCapacity is the number of tasks per spilled block.
	StoreBlockCapacity int
	// SpillDir is the directory for spilled task blocks; empty keeps
	// blocks in accounted memory buffers (tests, benchmarks).
	SpillDir string

	// UseLSH orders the task priority queue by minhash signatures of
	// to_pull sets (§7). Disabling reproduces Dis-LSH in Figure 12.
	UseLSH bool
	// LSHDims is the signature dimension (default 4).
	LSHDims int

	// Stealing enables dynamic load balancing by task stealing (§6.2).
	Stealing bool
	// StealBatch is Tnum, the number of tasks migrated per MIGRATE.
	StealBatch int
	// StealPolicy overrides the Eq. 2/3 cost model (nil: CostPolicy with
	// the paper's Tc and Tr, stealCostMax and stealLocalityMax). Policies
	// implementing TaskObserver are fed completed-task costs.
	StealPolicy StealPolicy

	// EagerSeeding generates every seed task before processing starts
	// (the paper's behavior; §9 lists it as an overhead). When false,
	// seeds stream into the pipeline with backpressure.
	EagerSeeding bool

	// ProgressInterval paces periodic reports, steal requests, pull retries
	// and memory sampling; no job waits on it (idle workers report at once).
	ProgressInterval time.Duration
	// CheckpointEvery takes a checkpoint each interval; 0 disables.
	CheckpointEvery time.Duration
	// CheckpointDir stores checkpoint files (empty: in-memory snapshots).
	CheckpointDir string
	// Resume restores the whole job from the newest committed epoch in
	// CheckpointDir instead of starting from scratch. The manifest's job
	// fingerprint (graph, algorithm, worker count, partitioner) must match
	// or Start refuses.
	Resume bool
	// FailTimeout marks a worker dead after this silence; 0 disables
	// failure detection.
	FailTimeout time.Duration

	// PullRetryBase is the initial wait before re-issuing an unanswered
	// pull request; retries back off exponentially (with jitter) up to
	// pullRetryMaxFactor times it. The default scales with
	// ProgressInterval.
	PullRetryBase time.Duration

	// Chaos, if non-nil, wraps every node's endpoint with the seeded
	// fault-injection layer (internal/chaos) and executes the profile's
	// crash schedule against live workers. Only single-shot jobs (Start,
	// Run) accept it.
	Chaos *chaos.Controller

	// Partitioner distributes vertices to workers; default BDG (§6.1).
	Partitioner partition.Partitioner

	// Dynamic enables graph mutations on a Session (ApplyMutations and
	// the graph-epoch machinery). Requires the block-decomposable
	// partition.Blocked partitioner — the only one whose incremental
	// re-placement provably equals a from-scratch partition. Single-shot
	// jobs and coordinator sessions (NewRemoteSession) reject it.
	Dynamic bool
	// GraphEpoch stamps the graph epoch a job runs at. Sessions set it at
	// Launch; it folds into the job fingerprint so a checkpoint taken
	// against one epoch can never resume against another shape of the
	// graph, and the serving result cache dies with the epoch.
	GraphEpoch int64

	// Latency and BandwidthBps configure the simulated network.
	Latency      time.Duration
	BandwidthBps int64

	// SampleEvery enables utilization timeline sampling (Figures 5–6)
	// with the given period; 0 disables.
	SampleEvery time.Duration

	// Tracer records structured pipeline events and latency histograms
	// (internal/trace). Nil disables all tracing at zero hot-path cost;
	// a constructed-but-disabled tracer costs one atomic load per probe.
	// Create it with trace.New(Workers+1, ...) so the master has a ring.
	Tracer *trace.Tracer

	// RoundHook, if non-nil, is called by the master once per scheduling
	// round (each batch of arrived messages, at least once per
	// ProgressInterval) with the round number, from the master
	// goroutine. It is the cooperative-preemption point the serving
	// layer uses to stop over-budget or past-deadline jobs at a round
	// boundary: the hook may call Job.CancelCause, which only closes a
	// channel, so it is safe from here. Keep it fast — it runs on the
	// master's control loop.
	RoundHook func(round int64)

	// MaxPendingPulls bounds tasks waiting in the CMQ per worker.
	MaxPendingPulls int
	// CPQHighWater bounds the ready-task computation queue per worker.
	CPQHighWater int
}

// Engine tuning constants.
const (
	// pullServeWorkers is the size of the per-worker pool serving incoming
	// pull requests, so one large neighborhood read cannot
	// head-of-line-block every other requester's response.
	pullServeWorkers = 4
	// bufferFlush is the task-buffer batch size (§4.3: "inserted into the
	// task store in batches").
	bufferFlush = 64
	// stealCostMax is Tc: only tasks with c(t) = |subG|+|cand| < Tc move.
	stealCostMax = 4096
	// stealLocalityMax is Tr: only tasks with lr(t) < Tr move.
	stealLocalityMax = 0.9
	// checkpointQuiesceTimeout bounds how long a worker waits for its
	// pipeline to quiesce before skipping a checkpoint epoch.
	checkpointQuiesceTimeout = 10 * time.Second
	// pullRetryMaxFactor caps the pull retry backoff at this multiple of
	// Config.PullRetryBase.
	pullRetryMaxFactor = 16
)

// Defaults fills unset fields with production defaults.
func (c Config) Defaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 8192
	}
	if c.CacheShards <= 0 {
		c.CacheShards = cache.DefaultShards
	}
	if c.StoreMemCapacity <= 0 {
		c.StoreMemCapacity = 8192
	}
	if c.StoreBlockCapacity <= 0 {
		c.StoreBlockCapacity = c.StoreMemCapacity / 4
	}
	if c.LSHDims <= 0 {
		c.LSHDims = 4
	}
	if c.StealBatch <= 0 {
		c.StealBatch = 32
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 2 * time.Millisecond
	}
	if c.PullRetryBase <= 0 {
		// First retry after ~30 report periods: late enough that a slow
		// response usually wins the race, early enough that a lost batch
		// does not stall the CMQ window for long.
		c.PullRetryBase = 30 * c.ProgressInterval
	}
	if c.Partitioner == nil {
		c.Partitioner = partition.BDG{}
	}
	if c.MaxPendingPulls <= 0 {
		// The CMQ window pins remote candidates in the cache; it must stay
		// a fraction of the cache or the RCV ordering cannot pay off.
		c.MaxPendingPulls = c.CacheCapacity / 16
		if c.MaxPendingPulls < 16 {
			c.MaxPendingPulls = 16
		}
		if c.MaxPendingPulls > 256 {
			c.MaxPendingPulls = 256
		}
	}
	if c.CPQHighWater <= 0 {
		c.CPQHighWater = 4 * c.Threads * 8
		if max := c.CacheCapacity / 16; c.CPQHighWater > max && max >= 8 {
			c.CPQHighWater = max
		}
	}
	return c
}
