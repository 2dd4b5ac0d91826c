package main

import (
	"runtime"

	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
)

// apps is the job cycle every workload draws from. mcf is deliberately
// absent: its output depends on aggregate propagation timing, so it has
// no fixed oracle answer, and its jobs run seconds, not milliseconds.
var apps = []string{"tc", "gm", "cd"}

// shape is the engine size every workload runs with: Workers x Threads
// never exceeds the host's CPU count, so the engine does not contend with
// itself for cores.
type shape struct{ Workers, Threads int }

func engineShape() shape {
	const workers = 2 // multiproc needs two worker processes
	return shape{Workers: workers, Threads: max(1, runtime.NumCPU()/workers)}
}

// clusterConfig mirrors gminerd's defaults (bdg partitioner, LSH queue,
// stealing, 8192-vertex cache and task store), so in-process sessions,
// in-process servers and the gminerd processes all run the same engine.
func clusterConfig(sh shape) cluster.Config {
	return cluster.Config{
		Workers:          sh.Workers,
		Threads:          sh.Threads,
		CacheCapacity:    8192,
		StoreMemCapacity: 8192,
		UseLSH:           true,
		Stealing:         true,
		Partitioner:      partition.BDG{},
	}
}

// derive mixes the run seed with a per-input constant so the workloads'
// graphs and streams are independent of one another.
func derive(seed int64, k int64) int64 { return seed*1_000_003 + k }

// annotate labels g with the 7-letter alphabet the gm pattern uses and
// gives it 5-dim [1,10] attribute vectors for cd, both from the seed, so
// every app runs on the graph as handed over and the server never has to
// prepare it.
func annotate(g *graph.Graph, seed int64) {
	gen.AssignLabels(g, 7, derive(seed, 1))
	gen.AssignAttrs(g, 5, 10, derive(seed, 2))
}

// heavyGraph is the batch-heavy and multiproc input: a dense power-law
// RMAT graph shaped like the orkut-s preset at half scale (2,048 vertices,
// ~60k generated edges). Half scale keeps a tc/gm/cd cycle short enough
// that one run collects the 200+ jobs a p95 needs.
func heavyGraph(seed int64) *graph.Graph {
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 60_000, Seed: derive(seed, 10)})
	annotate(g, seed)
	return g
}

// servedGraph is the served-mix input: an attributed community graph
// shaped like the dblp-s preset.
func servedGraph(seed int64) *graph.Graph {
	g, _ := gen.Community(gen.CommunityConfig{
		Communities: 120,
		MinSize:     8,
		MaxSize:     24,
		PIn:         0.35,
		Bridges:     3000,
		AttrDim:     5,
		AttrRange:   10,
		Seed:        derive(seed, 20),
	})
	gen.AssignLabels(g, 7, derive(seed, 1))
	return g
}

// dynGraph is the mutate-standing input: a sparse power-law RMAT graph
// shaped like the skitter-s preset.
func dynGraph(seed int64) *graph.Graph {
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 11_000, Seed: derive(seed, 30)})
	annotate(g, seed)
	return g
}

// specFor builds the job spec for app. A non-zero tag goes into the
// spec's seed field: it makes the spec's cache key distinct without
// changing what is computed (the seed only drives annotation of
// unannotated graphs, and every benchmark graph arrives annotated).
func specFor(app string, tag int64) jobspec.Spec {
	return jobspec.Spec{App: app, Seed: tag}.Normalize()
}
