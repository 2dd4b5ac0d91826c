package transport

import (
	"fmt"
	"net"
	"time"
)

// RedialPolicy bounds how long a sender keeps re-attempting to dial an
// unreachable peer before giving the frame up. The zero policy means one
// dial attempt, no retry. A worker *process* that is restarting is gone
// for seconds (exec, graph load, partition, join), so peers must keep
// knocking with backoff instead of failing on the first refused dial.
type RedialPolicy struct {
	// Budget is the total time to keep re-attempting the dial. Zero means
	// a single attempt.
	Budget time.Duration
	// Base is the first backoff sleep (default 50ms). Doubles per attempt.
	Base time.Duration
	// Max caps the backoff (default 1s).
	Max time.Duration
}

func (p RedialPolicy) withDefaults() RedialPolicy {
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = time.Second
	}
	return p
}

// dialRetry dials the address returned by addrOf, re-attempting with
// exponential backoff until the policy's budget is spent. addrOf is
// re-evaluated before every attempt so an address update (a replacement
// worker advertising a new port) takes effect mid-retry. A close of
// cancel aborts the wait immediately.
func dialRetry(addrOf func() string, dialTimeout time.Duration, p RedialPolicy, cancel <-chan struct{}) (net.Conn, error) {
	p = p.withDefaults()
	deadline := time.Now().Add(p.Budget)
	backoff := p.Base
	var lastErr error
	for {
		if addr := addrOf(); addr == "" {
			lastErr = fmt.Errorf("transport: peer address unknown")
		} else {
			c, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err == nil {
				return c, nil
			}
			lastErr = err
		}
		if p.Budget <= 0 || !time.Now().Before(deadline) {
			return nil, lastErr
		}
		sleep := backoff
		if rest := time.Until(deadline); rest < sleep {
			sleep = rest
		}
		select {
		case <-cancel:
			return nil, fmt.Errorf("transport: dial cancelled: %w", lastErr)
		case <-time.After(sleep):
		}
		backoff *= 2
		if backoff > p.Max {
			backoff = p.Max
		}
	}
}
