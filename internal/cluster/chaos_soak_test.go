package cluster_test

import (
	"testing"
	"time"

	"gminer/internal/chaos"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

// chaosBaseline runs the same job fault-free and returns its sorted
// records. slowMark's output is deterministic, so the baseline is the
// ground truth the chaos runs must reproduce byte for byte.
func chaosBaseline(t *testing.T, cfg cluster.Config, seed int64) []string {
	t.Helper()
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: seed})
	res, err := cluster.Run(g, &slowMark{delay: 100 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Records
}

// TestChaosSoakLossyNetwork runs a real mining job through a network that
// drops, delays, duplicates and reorders messages (no crashes), with task
// stealing on. The result multiset must be byte-identical to the
// fault-free baseline and the job must terminate on its own.
func TestChaosSoakLossyNetwork(t *testing.T) {
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	// Faster pull retries keep the soak short: each dropped pull costs one
	// backoff interval before the retry path re-issues it.
	cfg.PullRetryBase = 10 * time.Millisecond

	want := chaosBaseline(t, cfg, 61)

	profile := chaos.Profile{
		Seed:     0xc4a05,
		Drop:     0.05,
		Delay:    0.20,
		Dup:      0.03,
		Reorder:  0.05,
		DelayMin: 100 * time.Microsecond,
		DelayMax: 1500 * time.Microsecond,
	}
	ctl := chaos.New(profile)
	cfg.Chaos = ctl

	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 61})
	res, err := cluster.Run(g, &slowMark{delay: 100 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := ctl.Stats()
	if stats.Injected() == 0 {
		t.Fatalf("chaos injected nothing: %+v", stats)
	}
	if stats.Drops == 0 {
		t.Fatalf("soak never exercised the drop path: %+v", stats)
	}
	assertSameRecords(t, res.Records, want)
}

// TestChaosSoakWithWorkerCrash is the full §7 scenario: the default chaos
// profile (drops + delays + one worker crash mid-job) against a
// checkpointing cluster with failure detection. The crash is recovered by
// the failure detector; the job must terminate without intervention and
// emit exactly the baseline records.
func TestChaosSoakWithWorkerCrash(t *testing.T) {
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	cfg.CheckpointEvery = 3 * time.Millisecond
	cfg.CheckpointDir = t.TempDir()
	cfg.FailTimeout = 10 * time.Millisecond
	cfg.PullRetryBase = 10 * time.Millisecond
	// Stealing off: a migration in flight at kill time would be lost — the
	// same hole the paper's checkpoint protocol has (tasks migrated after
	// the victim's checkpoint are in nobody's snapshot).
	cfg.Stealing = false

	want := chaosBaseline(t, cfg, 67)

	ctl := chaos.New(chaos.Default(0xdef0))
	cfg.Chaos = ctl

	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 67})
	res, err := cluster.Run(g, &slowMark{delay: 150 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats := ctl.Stats(); stats.Injected() == 0 {
		t.Fatalf("chaos injected nothing: %+v", stats)
	}
	if res.Recovered == 0 {
		t.Fatal("crash window never recovered a worker")
	}
	assertSameRecords(t, res.Records, want)
}

// TestChaosSameSeedSameStats reruns the lossy soak with the same seed and
// expects the same injection decisions — the property that makes chaos
// failures reproducible from a CI log.
func TestChaosSameSeedSameStats(t *testing.T) {
	profile := chaos.Profile{
		Seed:     7,
		Drop:     0.04,
		Delay:    0.10,
		DelayMin: 50 * time.Microsecond,
		DelayMax: 500 * time.Microsecond,
	}
	run := func() chaos.Stats {
		cfg := smallConfig()
		cfg.Partitioner = partition.Hash{}
		cfg.PullRetryBase = 10 * time.Millisecond
		ctl := chaos.New(profile)
		cfg.Chaos = ctl
		g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1200, Seed: 71})
		if _, err := cluster.Run(g, &slowMark{delay: 50 * time.Microsecond}, cfg); err != nil {
			t.Fatal(err)
		}
		return ctl.Stats()
	}
	a, b := run(), run()
	// Scheduling differences change how many messages each run sends, so
	// exact equality is not guaranteed end-to-end; the per-message decision
	// sequence is, which shows up as both runs injecting faults of every
	// configured kind.
	if a.Injected() == 0 || b.Injected() == 0 {
		t.Fatalf("seeded runs injected nothing: %+v / %+v", a, b)
	}
	if (a.Drops == 0) != (b.Drops == 0) || (a.Delays == 0) != (b.Delays == 0) {
		t.Fatalf("same seed, different fault mix: %+v / %+v", a, b)
	}
}

// TestChaosSoakLongDelays holds control messages — progress reports,
// termination probes and their replies, steal orders, pull traffic — for
// up to 25 progress intervals, far past any stability window a clock-based
// detector could afford. The probe-wave detector must neither end a job
// early nor hang: every seed's records are byte-identical to the
// fault-free output.
func TestChaosSoakLongDelays(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := smallConfig()
		cfg.Partitioner = partition.Hash{}
		cfg.PullRetryBase = 10 * time.Millisecond
		ctl := chaos.New(chaos.Profile{
			Seed:     uint64(seed),
			Drop:     0.03,
			Delay:    0.20,
			Dup:      0.03,
			Reorder:  0.05,
			DelayMin: cfg.ProgressInterval,
			DelayMax: 25 * cfg.ProgressInterval,
		})
		cfg.Chaos = ctl
		g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1200, Seed: 80 + seed})
		res, err := cluster.Run(g, &slowMark{delay: 50 * time.Microsecond}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats := ctl.Stats(); stats.Delays == 0 || stats.Reorders == 0 {
			t.Fatalf("seed %d: soak never delayed a message: %+v", seed, stats)
		}
		assertSameRecords(t, res.Records, expectedMarks(g))
	}
}

// TestChaosLatencyBandwidthMigrations runs task stealing over a slow,
// narrow simulated link: a migration batch takes several milliseconds to
// serialize, a termination probe almost none. The per-receiver FIFO link
// keeps every batch ahead of any probe sent after it, and the master's
// sent/received balance keeps a wave from starting while one is on the
// wire, so the records stay byte-identical.
func TestChaosLatencyBandwidthMigrations(t *testing.T) {
	var stolen int64
	for seed := int64(1); seed <= 5; seed++ {
		cfg := smallConfig()
		cfg.Partitioner = partition.Hash{}
		cfg.Stealing = true
		cfg.Latency = 500 * time.Microsecond
		cfg.BandwidthBps = 256 << 10
		cfg.StealBatch = 64
		// Small ready/pending queues keep the laggard's backlog in its task
		// store, where thieves can reach it.
		cfg.CPQHighWater = 4
		cfg.MaxPendingPulls = 4
		g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1200, Seed: 90 + seed})
		res, err := cluster.Run(g, &laggardMark{slowMark{delay: 50 * time.Microsecond}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stolen += res.Total.Stolen
		assertSameRecords(t, res.Records, expectedMarks(g))
	}
	if stolen == 0 {
		t.Fatal("no task was ever stolen: the soak did not exercise migration")
	}
}

// laggardMark is slowMark with worker 0 running its tasks ten times
// slower, so the other workers run dry first and steal from it.
type laggardMark struct{ slowMark }

func (l *laggardMark) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	if env.WorkerID() == 0 {
		time.Sleep(9 * l.delay)
	}
	l.slowMark.Update(t, cands, env)
}
