package main

import (
	"errors"
	"slices"
	"testing"

	"gminer/internal/cluster"
	"gminer/internal/kernels"
)

func TestOracleCountsCorruptedAnswerAsFailure(t *testing.T) {
	g := servedGraph(3)
	sess, err := cluster.NewSession(g, clusterConfig(shape{2, 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	csr := kernels.MustBuild(g)
	r := newRun("test", 3, 1, false, "", t.TempDir())

	for _, app := range apps {
		want, _, err := seqReference(g, csr, specFor(app, 0))
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := r.localJob(sess, specFor(app, 0), r.off, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !r.tally.check(app, want, got) {
			t.Fatalf("%s: the engine's answer differs from algo.SeqRun's", app)
		}
		// Corrupt the answer the way a wrong result would look.
		bad := answer{Agg: got.Agg + "1", Records: got.Records}
		if app == "cd" {
			if len(got.Records) == 0 {
				t.Fatal("cd produced no records to corrupt")
			}
			bad = answer{Agg: got.Agg, Records: slices.Clone(got.Records)}
			bad.Records[0] += " x"
		}
		if r.tally.check(app+" corrupted", want, bad) {
			t.Errorf("%s: a corrupted answer passed the oracle", app)
		}
	}
	r.tally.fail(errors.New("refused"))
	attempted, failed, wrong, firstErr := r.tally.snapshot()
	if attempted != 7 || failed != 4 || wrong != 3 || firstErr == nil {
		t.Errorf("tally = %d attempted, %d failed, %d wrong (first %v); want 7, 4, 3", attempted, failed, wrong, firstErr)
	}
}

func TestSpecTagChangesCacheKeyNotAnswer(t *testing.T) {
	a, b := specFor("gm", 1), specFor("gm", 2)
	if a.CacheKey() == b.CacheKey() {
		t.Fatal("specs with different tags share a cache key; served-mix would hit the cache")
	}
	g := servedGraph(5)
	csr := kernels.MustBuild(g)
	x, _, err := seqReference(g, csr, a)
	if err != nil {
		t.Fatal(err)
	}
	y, _, err := seqReference(g, csr, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.equal(y) {
		t.Error("the tag changed what a job computes on an annotated graph")
	}
	if !g.Labeled() || !g.Attributed() {
		t.Error("served graph must arrive labeled and attributed")
	}
}
