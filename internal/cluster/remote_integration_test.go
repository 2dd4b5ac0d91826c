package cluster_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/memctl"
	"gminer/internal/partition"
)

// remoteTestCluster brings up a coordinator and cfg.Workers in-process
// WorkerProcess instances over real TCP sockets.
func remoteTestCluster(t *testing.T, g *graph.Graph, cfg cluster.Config,
	rcfg cluster.RemoteSessionConfig, wopt cluster.WorkerOptions) (*cluster.Session, []*cluster.WorkerProcess) {
	t.Helper()
	rcfg.Logf = t.Logf
	rs, err := cluster.NewRemoteSession(g, cfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	wps := make([]*cluster.WorkerProcess, cfg.Workers)
	for i := range wps {
		o := wopt
		o.Coordinator = rs.Addr()
		o.Node = i
		o.Logf = t.Logf
		if wopt.CheckpointDir != "" {
			o.CheckpointDir = filepath.Join(wopt.CheckpointDir, fmt.Sprintf("node-%d", i))
		}
		wp, err := cluster.StartWorkerProcess(g, cfg, o)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		wps[i] = wp
		t.Cleanup(wp.Close)
	}
	if err := rs.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	return rs, wps
}

// A multi-process cluster must serve byte-identical results to a
// single-process run of the same specs — concurrently, over real TCP.
func TestRemoteSessionByteIdentical(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 7})
	// qc and cd only: their record sets are pure per-task functions.
	// mcf's emissions are gated on the global-best aggregate, whose
	// propagation timing differs across process topologies.
	specs := []jobspec.Spec{
		{App: "qc"},
		{App: "cd", MinSim: 0.4, MinSize: 3},
	}
	for _, sp := range specs {
		jobspec.Prepare(g, sp)
	}

	cfg := smallConfig()
	want := make([][]string, len(specs))
	for i, sp := range specs {
		a, err := jobspec.Build(g, sp.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Run(g, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Records
		if len(want[i]) == 0 {
			t.Fatalf("degenerate reference for %s: no records", sp.App)
		}
	}

	rs, _ := remoteTestCluster(t, g, cfg,
		cluster.RemoteSessionConfig{ResultTimeout: 60 * time.Second},
		cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond})

	jobs := make([]*cluster.Job, len(specs))
	for i, sp := range specs {
		sp := sp.Normalize()
		a, err := jobspec.Build(g, sp)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i], err = rs.Launch(a, cluster.JobOptions{Spec: &sp})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("%s: %v", specs[i].App, err)
		}
		if !reflect.DeepEqual(res.Records, want[i]) {
			t.Fatalf("%s: remote records diverge from single-process run: got %d records, want %d",
				specs[i].App, len(res.Records), len(want[i]))
		}
		if res.Total.TasksDone == 0 {
			t.Fatalf("%s: no shipped worker counters in result", specs[i].App)
		}
	}
	if rs.ActiveJobs() != 0 {
		t.Fatalf("jobs leaked: %d active", rs.ActiveJobs())
	}
}

// Launching without a Spec must be refused: worker processes can only
// rebuild the algorithm from a spec.
func TestRemoteLaunchRequiresSpec(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 800, Seed: 11})
	cfg := smallConfig()
	rs, err := cluster.NewRemoteSession(g, cfg, cluster.RemoteSessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sp := jobspec.Spec{App: "tc"}.Normalize()
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Launch(a, cluster.JobOptions{}); err == nil {
		t.Fatal("launch without Spec accepted")
	}
}

// A per-job memory budget cannot be charged across worker processes, so a
// budgeted launch must be refused with an error naming the budget (never
// run unbudgeted), and so must a budgeted session template.
func TestRemoteLaunchRefusesMemBudget(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 800, Seed: 11})
	cfg := smallConfig()
	rs, err := cluster.NewRemoteSession(g, cfg, cluster.RemoteSessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sp := jobspec.Spec{App: "tc"}.Normalize()
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Launch(a, cluster.JobOptions{Spec: &sp, MemBudgetBytes: 1 << 20})
	if err == nil || !strings.Contains(err.Error(), "memory budget") {
		t.Fatalf("budgeted remote launch: got %v, want a memory-budget refusal", err)
	}
	if rs.ActiveJobs() != 0 {
		t.Fatalf("refused launch left %d job(s) registered", rs.ActiveJobs())
	}

	cfg.MemBudget = memctl.NewBudget(1 << 20)
	if rs2, err := cluster.NewRemoteSession(g, cfg, cluster.RemoteSessionConfig{}); err == nil {
		rs2.Close()
		t.Fatal("remote session with a memory-budget template accepted")
	}
}

// A worker process built over a different graph (wrong fingerprint) must
// be refused at the handshake.
func TestRemoteJoinRejectsFingerprintMismatch(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 800, Seed: 11})
	other := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 800, Seed: 13})
	cfg := smallConfig()
	rs, err := cluster.NewRemoteSession(g, cfg, cluster.RemoteSessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	_, err = cluster.StartWorkerProcess(other, cfg, cluster.WorkerOptions{
		Coordinator: rs.Addr(),
		Node:        -1,
		JoinTimeout: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("mismatched worker joined")
	}
}

// Kill one worker process mid-job, start a replacement claiming the same
// slot and checkpoint directory, and require the job to complete with
// records byte-identical to a fault-free single-process run: the
// coordinator re-admits the replacement and hands it the committed
// (epoch, crc) pairs to restore from.
func TestRemoteWorkerKillAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/rejoin soak")
	}
	// Sized so the remote run lasts seconds (kill + rejoin fit mid-job)
	// but stays tractable under the race detector on small CI hosts.
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 40000, Seed: 103})
	// cd: its emissions are a pure function of each task (no global
	// aggregator gate), so a replacement re-mining restored tasks emits
	// exactly what the dead worker would have. mcf would NOT work here —
	// its emission is gated on the racy global-best aggregate.
	sp := jobspec.Spec{App: "cd", MinSim: 0.4, MinSize: 3}.Normalize()
	jobspec.Prepare(g, sp)

	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	// Stealing off: a migration in flight at kill time would be lost (the
	// paper's checkpoint protocol shares the hole); recovery_test.go makes
	// the same choice.
	cfg.Stealing = false

	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cluster.Run(g, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Records) == 0 {
		t.Fatal("degenerate reference: no matches")
	}

	coordDir := t.TempDir()
	workerDir := t.TempDir()
	cfg.CheckpointDir = coordDir
	rs, wps := remoteTestCluster(t, g, cfg,
		cluster.RemoteSessionConfig{
			// Generous: under load, heartbeats and progress share the TCP
			// path with mining traffic, and the race detector can starve
			// the heartbeat goroutine; a tight timeout flaps every slot.
			FailTimeout:   2 * time.Second,
			ResultTimeout: 240 * time.Second,
		},
		cluster.WorkerOptions{
			HeartbeatEvery: 20 * time.Millisecond,
			CheckpointDir:  workerDir,
		})

	a2, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the job open until the replacement has joined: the kill must
	// land mid-job however fast the job runs.
	release := cluster.HoldJob("kill-rejoin")
	defer release()
	j, err := rs.Launch(a2, cluster.JobOptions{
		ID:              "kill-rejoin",
		Spec:            &sp,
		CheckpointEvery: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first committed epoch (the coordinator's MANIFEST
	// appears), then crash the process holding one worker slot.
	manifest := filepath.Join(coordDir, "kill-rejoin", "MANIFEST")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(manifest); err == nil {
			break
		}
		if j.Done() {
			t.Fatal("job finished before a checkpoint committed; enlarge the graph")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint committed within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim := wps[1]
	victimNode := victim.Node()
	victim.Kill()
	t.Logf("killed worker process holding node %d", victimNode)
	time.Sleep(20 * time.Millisecond)
	if j.Done() {
		t.Fatal("job finished before the replacement joined; enlarge the graph")
	}

	// The replacement claims the dead process's slot and points at its
	// checkpoint directory: the coordinator vouches for the committed
	// epochs, the local files supply the payloads.
	replacement, err := cluster.StartWorkerProcess(g, cfg, cluster.WorkerOptions{
		Coordinator:    rs.Addr(),
		Node:           victimNode,
		CheckpointDir:  filepath.Join(workerDir, fmt.Sprintf("node-%d", victimNode)),
		HeartbeatEvery: 20 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replacement.Close)
	release()

	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, ref.Records) {
		t.Fatalf("records diverge after kill+rejoin: got %d records, want %d",
			len(res.Records), len(ref.Records))
	}
	if res.Recovered == 0 {
		t.Fatal("result does not report the recovery")
	}
	health := rs.WorkerHealth()
	if !health[victimNode].Joined || health[victimNode].Generation < 2 {
		t.Fatalf("slot %d health after rejoin: %+v", victimNode, health[victimNode])
	}
}
