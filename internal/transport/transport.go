// Package transport carries messages between the master and the workers.
//
// Two networks are provided: an in-process one (local.go) whose optional
// latency/bandwidth model stands in for the paper's Gigabit Ethernet, and
// a TCP one (remote.go) connecting the processes of a multi-process
// cluster. Jobs reach either through a Mux (mux.go), which gives every job
// its own channel and charges every payload byte to the sending node's
// per-job metrics counters — what the "Net. (GB)" columns of Tables 1
// and 4 report.
package transport

import (
	"sync"
	"time"
)

// Message is one network message. Type values are defined by the cluster
// protocol (internal/cluster); the transport treats them as opaque.
type Message struct {
	From    int
	To      int
	Type    uint8
	Payload []byte
}

// headerBytes approximates per-message framing overhead for accounting.
const headerBytes = 16

// Endpoint is one node's connection to the network.
type Endpoint interface {
	// Send delivers a message asynchronously. It never blocks on the
	// receiver (inboxes are unbounded), so the cluster protocol cannot
	// deadlock on transport backpressure.
	Send(to int, typ uint8, payload []byte) error
	// Recv blocks for the next message; ok=false after Close.
	Recv() (Message, bool)
	// RecvTimeout waits up to d; ok=false on timeout or close.
	RecvTimeout(d time.Duration) (Message, bool)
	// Node returns this endpoint's node index.
	Node() int
	// Close shuts the endpoint; pending and future Recv calls return false.
	Close() error
}

// mailbox is an unbounded FIFO with optional not-before delivery times
// (latency simulation).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []timedMessage
	closed bool
}

type timedMessage struct {
	m       Message
	readyAt time.Time
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) push(m Message, readyAt time.Time) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return
	}
	mb.queue = append(mb.queue, timedMessage{m: m, readyAt: readyAt})
	mb.cond.Broadcast()
}

// pop blocks until a message is deliverable, the deadline passes or the
// box closes; deadline zero means wait forever. It waits on the cond: a
// push or close wakes it, and a timer at the head's delivery time
// (latency simulation) or the deadline, whichever comes first.
func (mb *mailbox) pop(deadline time.Time) (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		now := time.Now()
		wake := deadline
		if len(mb.queue) > 0 {
			head := mb.queue[0]
			if !now.Before(head.readyAt) {
				mb.queue = mb.queue[1:]
				return head.m, true
			}
			if wake.IsZero() || head.readyAt.Before(wake) {
				wake = head.readyAt
			}
		} else if mb.closed {
			return Message{}, false
		}
		if !deadline.IsZero() && !now.Before(deadline) {
			return Message{}, false
		}
		if wake.IsZero() {
			mb.cond.Wait()
			continue
		}
		timer := time.AfterFunc(wake.Sub(now), mb.wakeAll)
		mb.cond.Wait()
		timer.Stop()
	}
}

func (mb *mailbox) wakeAll() {
	mb.mu.Lock()
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.queue = nil
	mb.cond.Broadcast()
}
