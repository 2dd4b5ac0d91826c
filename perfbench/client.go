package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gminer/internal/jobspec"
	"gminer/internal/server"
)

// pollInterval is how often a client re-reads GET /jobs/{id} while a job
// runs. Latency does not depend on it: a served job is timed to the
// server's own `finished` timestamp, and the poll only notices it.
const pollInterval = 2 * time.Millisecond

// clockSlack absorbs timestamp rounding when a server-side timestamp is
// compared with client-side ones.
const clockSlack = time.Millisecond

// errRefused marks a submission the server turned away (HTTP 429 or 503).
var errRefused = errors.New("refused")

// client speaks the job server's HTTP API. One client holds at most one
// connection per CPU.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into out when the status
// is want.
func (c *client) do(method, path string, body any, out any, want int) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("encode %s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode == want {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
		return nil
	}
	err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		err = fmt.Errorf("%w: %v", errRefused, err)
	}
	return err
}

// submit is POST /jobs; the server answers 202 with the job's status.
func (c *client) submit(req server.JobRequest) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(http.MethodPost, "/jobs", req, &st, http.StatusAccepted)
	return st, err
}

func (c *client) status(id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(http.MethodGet, "/jobs/"+id, nil, &st, http.StatusOK)
	return st, err
}

func (c *client) result(id string) (server.JobResult, error) {
	var res server.JobResult
	err := c.do(http.MethodGet, "/jobs/"+id+"/result", nil, &res, http.StatusOK)
	return res, err
}

// standing submits a standing query for app under the ID "standing-<app>"
// and waits until its baseline run has finished.
func (c *client) standing(app string) error {
	spec := specFor(app, 0)
	spec.Standing = true
	id := "standing-" + app
	st, err := c.submit(server.JobRequest{Spec: spec, ID: id})
	for err == nil && !terminal(st.State) {
		time.Sleep(pollInterval)
		st, err = c.status(id)
	}
	if err != nil {
		return fmt.Errorf("standing %s: %w", app, err)
	}
	if st.State != "standing" {
		return fmt.Errorf("standing %s ended %s: %s", app, st.State, st.Error)
	}
	return nil
}

func terminal(state string) bool {
	switch state {
	case "queued", "running":
		return false
	}
	return true
}

// servedJob submits spec, polls its status until the server reports it
// finished, and fetches its result. The job's latency runs from just
// before the POST to the server's `finished` timestamp, on the same host
// clock, so it carries no poll quantization; the moment the client
// noticed completion must agree with it within one poll interval plus
// that poll's own round trip.
func (c *client) servedJob(spec jobspec.Spec, id string, sp *spans) (jobObs, answer, error) {
	o := jobObs{App: spec.App, ID: id, Served: true, Traced: sp.on}
	root := sp.begin("job", id, 0)
	defer sp.end(root)
	t0 := time.Now()
	sid := sp.begin("POST /jobs", id, root)
	st, err := c.submit(server.JobRequest{Spec: spec, ID: id})
	sp.end(sid)
	o.SubmitMS = ms(time.Since(t0))
	if err != nil {
		return o, answer{}, err
	}
	// prev is when the last request that still saw the job unfinished was
	// sent; the server's `finished` must fall between it and the moment
	// the client saw the job done. That window is one poll period: the
	// interval plus however late the client woke and the poll's round trip.
	pid := sp.begin("poll", id, root)
	prev, seen := t0, time.Now()
	for !terminal(st.State) {
		time.Sleep(pollInterval)
		sent := time.Now()
		st, err = c.status(id)
		seen = time.Now()
		o.Polls++
		if err != nil {
			sp.end(pid)
			return o, answer{}, err
		}
		if !terminal(st.State) {
			prev = sent
		}
	}
	sp.end(pid)
	if st.State != "done" {
		return o, answer{}, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	if st.Finished == nil {
		return o, answer{}, fmt.Errorf("job %s: done without a finished timestamp", id)
	}
	o.LatencyMS = ms(st.Finished.Sub(t0))
	if st.Finished.Before(prev.Add(-clockSlack)) || st.Finished.After(seen.Add(clockSlack)) {
		return o, answer{}, fmt.Errorf("job %s: `finished` %v lies outside the poll period that saw it end [%v, %v]",
			id, st.Finished.Sub(t0), prev.Sub(t0), seen.Sub(t0))
	}
	o.Cached = st.Cached
	o.QueueMS = st.QueueWaitSeconds * 1000
	if st.Started != nil {
		o.LaunchMS = ms(st.Started.Sub(st.Submitted)) - o.QueueMS
	}
	o.BusyS = st.CostSeconds
	o.phases(st.Phases)

	var res server.JobResult
	sp.do("GET /jobs/{id}/result", id, root, func() { res, err = c.result(id) })
	if err != nil {
		return o, answer{}, err
	}
	o.ElapsedMS = res.ElapsedSeconds * 1000
	o.Tasks = res.TasksDone
	return o, answer{Agg: res.Aggregate, Records: res.Records}, nil
}

// jobCounters scrapes /metrics and sums each job's per-worker counters.
func (c *client) jobCounters() (map[string]counters, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]counters{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, "{job=\"")
		if !ok {
			continue
		}
		job, rest, ok := strings.Cut(rest, "\"")
		if !ok {
			continue
		}
		i := strings.LastIndexByte(rest, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(rest[i+1:], 64)
		if err != nil {
			continue
		}
		c := out[job]
		switch name {
		case "gminer_tasks_stolen_total":
			c.Stolen += v
		case "gminer_cache_hits_total":
			c.Hits += v
		case "gminer_cache_misses_total":
			c.Misses += v
		case "gminer_net_messages_total":
			c.Msgs += v
		case "gminer_net_bytes_total":
			c.Bytes += v
		default:
			continue
		}
		out[job] = c
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return out, nil
}

// attachCounters copies scraped counters onto the computed jobs the
// server still retains.
func attachCounters(jobs []jobObs, byJob map[string]counters) {
	for i := range jobs {
		if c, ok := byJob[jobs[i].ID]; ok && !jobs[i].Cached {
			jobs[i].counters, jobs[i].hasCounters = c, true
		}
	}
}

func isRefused(err error) bool { return errors.Is(err, errRefused) }
