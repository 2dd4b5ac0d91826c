package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/dyngraph"
)

// healthDoc fetches /healthz and decodes its JSON document.
func healthDoc(t *testing.T, base string) (int, map[string]any) {
	t.Helper()
	code, body := fetchText(t, base+"/healthz")
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	return code, doc
}

// TestServerOverCoordinatorSession drives the daemon's health, metrics
// and mutation handlers over a multi-process coordinator session whose
// worker processes run in this test process over real TCP, and checks an
// in-process daemon shows none of the per-worker-process surface.
func TestServerOverCoordinatorSession(t *testing.T) {
	g := servingGraph()
	ccfg := testClusterConfig()
	sess, err := cluster.NewRemoteSession(g, ccfg, cluster.RemoteSessionConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sess, Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		sess.Close()
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	base := "http://" + addr

	// Every slot but the last joins: the daemon stays degraded.
	for i := 0; i < ccfg.Workers; i++ {
		if code, doc := healthDoc(t, base); code != http.StatusServiceUnavailable || doc["status"] != "degraded" {
			t.Fatalf("healthz with %d of %d slots joined: %d %v, want 503 degraded", i, ccfg.Workers, code, doc["status"])
		}
		wp, err := cluster.StartWorkerProcess(g, ccfg, cluster.WorkerOptions{
			Coordinator:    sess.Addr(),
			Node:           i,
			HeartbeatEvery: 20 * time.Millisecond,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(wp.Close)
	}
	if err := sess.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	code, doc := healthDoc(t, base)
	if code != http.StatusOK || doc["status"] != "ok" {
		t.Fatalf("healthz with every slot joined: %d %v, want 200 ok", code, doc["status"])
	}
	workers, ok := doc["workers"].([]any)
	if !ok || len(workers) != ccfg.Workers {
		t.Fatalf("healthz workers = %v, want %d entries", doc["workers"], ccfg.Workers)
	}
	for i, w := range workers {
		if gen, _ := w.(map[string]any)["generation"].(float64); gen < 1 {
			t.Fatalf("worker %d generation %v, want >= 1", i, gen)
		}
	}

	_, metrics := fetchText(t, base+"/metrics")
	for i := 0; i < ccfg.Workers; i++ {
		if line := fmt.Sprintf("gminer_cluster_worker_up{node=\"%d\"} 1\n", i); strings.Count(metrics, line) != 1 {
			t.Fatalf("metrics: want exactly one %q line", strings.TrimSpace(line))
		}
	}

	if code, _ := mutate(t, base, dyngraph.Batch{Ops: []dyngraph.Mutation{{Op: dyngraph.OpAddEdge, U: 0, W: 5}}}); code != http.StatusNotImplemented {
		t.Fatalf("mutation on a coordinator: status %d, want 501", code)
	}

	local, localBase := startServer(t, testClusterConfig(), Config{})
	defer local.Shutdown()
	if _, doc := healthDoc(t, localBase); len(doc) == 0 {
		t.Fatal("in-process healthz: empty document")
	} else if _, has := doc["workers"]; has {
		t.Fatalf("in-process healthz %v has a workers key", doc)
	}
	if _, m := fetchText(t, localBase+"/metrics"); strings.Contains(m, "gminer_cluster_") {
		t.Fatal("in-process metrics expose gminer_cluster_ families")
	}
}
