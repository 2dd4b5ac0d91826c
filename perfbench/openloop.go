package main

import "time"

// clock abstracts time for the open-loop generator so its lateness
// accounting can be tested without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// opRecord is one open-loop operation: when it was due, when the
// generator actually sent it, and when it completed.
type opRecord struct {
	Due, Sent, Done time.Time
	Err             error
}

// Latency is the operation's time from its due time to completion. Timing
// from the due time, not the send time, charges a stall to every
// operation queued behind it, as an independent user would see it.
func (r opRecord) Latency() time.Duration { return r.Done.Sub(r.Due) }

// Lateness is how far behind schedule the generator sent the operation.
func (r opRecord) Lateness() time.Duration { return r.Sent.Sub(r.Due) }

// openLoop sends operation i at start + i*interval, in order, until the
// schedule passes end or n operations were sent. Operations go out one at
// a time because mutation batches must apply in stream order; when one is
// still in flight at the next due time, the next is sent late and its
// lateness and latency both record the stall.
func openLoop(c clock, start, end time.Time, interval time.Duration, n int, send func(i int) error) []opRecord {
	var out []opRecord
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		c.SleepUntil(due)
		rec := opRecord{Due: due, Sent: c.Now()}
		rec.Err = send(i)
		rec.Done = c.Now()
		out = append(out, rec)
	}
	return out
}
