package main

import (
	"fmt"
	"slices"
	"sync"
)

// answer is the observable output of one mining job: the formatted
// aggregate (empty when the app has none) and the sorted output records.
type answer struct {
	Agg     string
	Records []string
}

func (a answer) equal(b answer) bool {
	return a.Agg == b.Agg && slices.Equal(a.Records, b.Records)
}

// formatAgg renders an aggregate value the way the job server's
// JobResult.Aggregate does, so in-process and served answers compare as
// strings.
func formatAgg(v any) string {
	if v == nil {
		return ""
	}
	return fmt.Sprintf("%v", v)
}

// tally counts operations attempted and failed across the clients of one
// run. A failed operation is one that errored, was refused, or returned
// an answer different from the oracle's.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	firstErr  error
}

// ok records one successful operation.
func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one operation that errored or was refused.
func (t *tally) fail(err error) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// check compares got against the oracle's want and records the outcome.
// It reports whether the answer was correct.
func (t *tally) check(what string, want, got answer) bool {
	if want.equal(got) {
		t.ok()
		return true
	}
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.wrong++
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf("%s: answer differs from the oracle (agg %q vs %q, %d vs %d records)",
			what, got.Agg, want.Agg, len(got.Records), len(want.Records))
	}
	t.mu.Unlock()
	return false
}

func (t *tally) snapshot() (attempted, failed, wrong int, firstErr error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.wrong, t.firstErr
}
