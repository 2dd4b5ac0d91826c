package cluster_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
)

// TestEndToEndThroughLocalFiles exercises the paper's full job flow: the
// input graph is loaded from a file, the job runs on the cluster runtime,
// and the output records are dumped back to a file.
func TestEndToEndThroughLocalFiles(t *testing.T) {
	dir := t.TempDir()
	orig, _ := gen.Community(gen.CommunityConfig{
		Communities: 15, MinSize: 6, MaxSize: 10, PIn: 0.7, Bridges: 150, Seed: 301,
	})
	graphPath := filepath.Join(dir, "graph.adj")
	if err := graph.SaveFile(graphPath, orig); err != nil {
		t.Fatal(err)
	}
	g, err := graph.LoadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}

	cd := algo.NewCommunityDetect(0.6, 4)
	want := algo.RefCommunities(g, cd)
	res, err := cluster.Run(g, cd, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, res.Records, want)

	outPath := filepath.Join(dir, "communities.txt")
	if err := os.WriteFile(outPath, []byte(strings.Join(res.Records, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, strings.Split(strings.TrimSuffix(string(b), "\n"), "\n"), want)
}

// TestDeterministicResults: with stealing disabled the record set is a
// pure function of (graph, algorithm, partitioning) — repeated runs agree
// exactly even though execution interleavings differ.
func TestDeterministicResults(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3200, Seed: 307})
	qc := algo.NewQuasiClique(0.7, 4)
	cfg := smallConfig()
	cfg.Stealing = false
	first, err := cluster.Run(g, qc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := cluster.Run(g, qc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRecords(t, res.Records, first.Records)
	}
}

// TestMonitorSourceMethods checks the Job-side monitoring contract.
func TestMonitorSourceMethods(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 1000, Seed: 311})
	job, err := cluster.Start(g, algo.NewTriangleCount(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	snaps := job.WorkerSnapshots()
	if len(snaps) != 3 {
		t.Fatalf("snapshots: %d", len(snaps))
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if !job.Done() {
		t.Fatal("job should report done after Wait")
	}
}
