package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or an operation runs.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{now: start}
	// Operations take 10ms, except operation 1, which stalls for 250ms.
	cost := []time.Duration{10, 250, 10, 10, 10}
	recs := openLoop(c, start, start.Add(time.Second), 100*time.Millisecond, len(cost), func(i int) error {
		c.now = c.now.Add(cost[i] * time.Millisecond)
		return nil
	})
	if len(recs) != len(cost) {
		t.Fatalf("sent %d operations, want %d", len(recs), len(cost))
	}
	want := []struct{ late, lat time.Duration }{
		{0, 10 * time.Millisecond},
		{0, 250 * time.Millisecond},
		// Due at 200ms, sent at 350ms when operation 1 returned.
		{150 * time.Millisecond, 160 * time.Millisecond},
		// Due at 300ms, sent at 360ms, still behind.
		{60 * time.Millisecond, 70 * time.Millisecond},
		// Due at 400ms, sent on time: the generator has caught up.
		{0, 10 * time.Millisecond},
	}
	for i, w := range want {
		if got := recs[i].Lateness(); got != w.late {
			t.Errorf("op %d lateness = %v, want %v", i, got, w.late)
		}
		if got := recs[i].Latency(); got != w.lat {
			t.Errorf("op %d latency = %v, want %v", i, got, w.lat)
		}
		if due := start.Add(time.Duration(i) * 100 * time.Millisecond); !recs[i].Due.Equal(due) {
			t.Errorf("op %d due %v, want %v", i, recs[i].Due.Sub(start), due.Sub(start))
		}
	}
}

func TestOpenLoopStopsAtEndOfSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{now: start}
	recs := openLoop(c, start, start.Add(450*time.Millisecond), 100*time.Millisecond, 100, func(int) error { return nil })
	if len(recs) != 5 {
		t.Errorf("sent %d operations in a 450ms schedule at 10/s, want 5", len(recs))
	}
}
