package cluster

import (
	"testing"
	"time"

	"gminer/internal/metrics"
	"gminer/internal/transport"
)

// probeHarness drives a master with synthetic worker reports: nothing
// runs on its own, every message and termination check is a test step.
type probeHarness struct {
	t   *testing.T
	m   *master
	net *transport.LocalNetwork
}

func newProbeHarness(t *testing.T, workers int) *probeHarness {
	t.Helper()
	cfg := Config{Workers: workers, Threads: 1, ProgressInterval: time.Millisecond}.Defaults()
	net := transport.NewLocal(transport.LocalConfig{Nodes: workers + 1})
	t.Cleanup(net.Close)
	m := newMaster(cfg, net.Endpoint(workers), nil, &metrics.Counters{}, nil, nil, nil)
	return &probeHarness{t: t, m: m, net: net}
}

// report delivers one worker report to the master.
func (h *probeHarness) report(p progressReport) {
	h.m.handle(transport.Message{From: p.Worker, To: h.m.cfg.Workers, Type: msgProgress, Payload: encodeProgress(&p)})
}

// idle is an idle, balanced report with the given Activity, answering wave.
func idle(worker int, activity, wave int64) progressReport {
	return progressReport{Worker: worker, SeedsDone: true, Activity: activity, Wave: wave}
}

// check runs one termination check and returns its verdict.
func (h *probeHarness) check() bool { return h.m.checkTermination() }

// probes returns the waves probed at worker w since the last call.
func (h *probeHarness) probes(w int) []int64 {
	var waves []int64
	ep := h.net.Endpoint(w)
	for {
		msg, ok := ep.RecvTimeout(0)
		if !ok {
			return waves
		}
		if msg.Type == msgProbe {
			wave, err := decodeEpoch(msg.Payload)
			if err != nil {
				h.t.Fatal(err)
			}
			waves = append(waves, wave)
		}
	}
}

// expireWave makes the open wave look unanswered for longer than its wait.
func (h *probeHarness) expireWave() { h.m.waveAt = time.Now().Add(-time.Hour) }

func TestProbeWaveTerminatesOnUnchangedIdleReplies(t *testing.T) {
	h := newProbeHarness(t, 2)
	h.report(idle(0, 5, 0))
	if h.check() {
		t.Fatal("terminated on one worker's report")
	}
	if got := h.probes(0); len(got) != 0 {
		t.Fatalf("probed %v before every worker reported idle", got)
	}
	h.report(idle(1, 9, 0))
	if h.check() {
		t.Fatal("terminated without a probe wave")
	}
	wave := h.m.wave
	for w := 0; w < 2; w++ {
		if got := h.probes(w); len(got) != 1 || got[0] != wave {
			t.Fatalf("worker %d probes %v, want [%d]", w, got, wave)
		}
	}
	h.report(idle(0, 5, wave))
	if h.check() {
		t.Fatal("terminated with a reply missing")
	}
	h.report(idle(1, 9, wave))
	if !h.check() {
		t.Fatal("every reply idle and unchanged, yet no termination")
	}
}

func TestProbeWaveNeedsBalancedMigrations(t *testing.T) {
	h := newProbeHarness(t, 2)
	a := idle(0, 5, 0)
	a.TasksSent = 3 // a migration batch the thief has not reported yet
	h.report(a)
	h.report(idle(1, 9, 0))
	for i := 0; i < 3; i++ {
		if h.check() {
			t.Fatal("terminated with a migration batch in flight")
		}
	}
	if got := h.probes(1); len(got) != 0 {
		t.Fatalf("probed %v with sent != recv", got)
	}
	b := idle(1, 12, 0)
	b.TasksRecv = 3
	h.report(b)
	h.check()
	if got := h.probes(1); len(got) != 1 {
		t.Fatalf("balanced idle reports probed %v, want one wave", got)
	}
}

func TestProbeWaveIgnoresStaleWaveReplies(t *testing.T) {
	h := newProbeHarness(t, 2)
	h.report(idle(0, 5, 0))
	h.report(idle(1, 9, 0))
	h.check()
	old := h.m.wave
	h.expireWave()
	h.check() // the unanswered wave is replaced
	if h.m.wave == old {
		t.Fatal("expired wave was not replaced")
	}
	h.report(idle(0, 5, old))
	h.report(idle(1, 9, old))
	if h.check() {
		t.Fatal("terminated on replies to a superseded wave")
	}
	h.report(idle(0, 5, h.m.wave))
	h.report(idle(1, 9, h.m.wave))
	if !h.check() {
		t.Fatal("current wave answered, yet no termination")
	}
}

func TestProbeWaveCountsDuplicateRepliesOnce(t *testing.T) {
	h := newProbeHarness(t, 3)
	for w := 0; w < 3; w++ {
		h.report(idle(w, 1, 0))
	}
	h.check()
	wave := h.m.wave
	h.report(idle(0, 1, wave))
	h.report(idle(0, 1, wave))
	h.report(idle(1, 1, wave))
	if h.check() {
		t.Fatal("a duplicated reply stood in for worker 2's missing one")
	}
	h.report(idle(2, 1, wave))
	if !h.check() {
		t.Fatal("every worker answered, yet no termination")
	}
}

func TestProbeWaveRefutedReplyStaysRefuted(t *testing.T) {
	h := newProbeHarness(t, 2)
	h.report(idle(0, 5, 0))
	h.report(idle(1, 9, 0))
	h.check()
	wave := h.m.wave
	// Worker 0 answered the probe twice (a duplicated probe); the later
	// reply, showing new activity, overtook the earlier, unchanged one.
	h.report(idle(0, 7, wave))
	h.report(idle(0, 5, wave))
	h.report(idle(1, 9, wave))
	if h.check() {
		t.Fatal("a reordered reply revived a refuted wave")
	}
}

func TestProbeWaveActivityChangeForcesNewWave(t *testing.T) {
	h := newProbeHarness(t, 2)
	h.report(idle(0, 5, 0))
	h.report(idle(1, 9, 0))
	h.check()
	first := h.m.wave
	// Worker 1 received, ran and finished a task between its two reports:
	// idle both times, but its Activity moved.
	h.report(idle(0, 5, first))
	h.report(idle(1, 11, first))
	if h.check() {
		t.Fatal("terminated although worker 1 worked between its reports")
	}
	second := h.m.wave
	if second == first {
		t.Fatal("idle reports after a refuted wave did not start a new one")
	}
	busy := idle(0, 6, second)
	busy.Inflight = 1
	h.report(busy)
	h.report(idle(1, 11, second))
	if h.check() {
		t.Fatal("terminated on a reply with an alive task")
	}
	if h.m.wave != second {
		t.Fatal("probed while a worker reports work")
	}
	h.report(idle(0, 8, 0))
	h.check()
	third := h.m.wave
	h.report(idle(0, 8, third))
	h.report(idle(1, 11, third))
	if !h.check() {
		t.Fatal("a clean wave after the work finished did not terminate")
	}
}

func TestProbeWaveLostProbeIsReprobed(t *testing.T) {
	h := newProbeHarness(t, 2)
	h.report(idle(0, 5, 0))
	h.report(idle(1, 9, 0))
	h.check()
	first := h.m.wave
	h.probes(0)
	h.probes(1)
	h.report(idle(0, 5, first)) // worker 1's probe (or reply) is lost
	for i := 0; i < 3; i++ {
		if h.check() {
			t.Fatal("terminated with a reply missing")
		}
	}
	wait := h.m.waveWait
	h.expireWave()
	h.check()
	if h.m.wave != first+1 {
		t.Fatalf("lost probe not re-probed: wave %d, want %d", h.m.wave, first+1)
	}
	if h.m.waveWait != 2*wait {
		t.Fatalf("re-probe wait %v, want doubled %v", h.m.waveWait, 2*wait)
	}
	for w := 0; w < 2; w++ {
		if got := h.probes(w); len(got) != 1 || got[0] != first+1 {
			t.Fatalf("worker %d re-probes %v, want [%d]", w, got, first+1)
		}
	}
	h.report(idle(1, 9, first)) // the lost reply finally arrives: too late
	if h.check() {
		t.Fatal("a late reply to the lost wave completed the new one")
	}
	h.report(idle(0, 5, first+1))
	h.report(idle(1, 9, first+1))
	if !h.check() {
		t.Fatal("re-probe answered, yet no termination")
	}
}

func TestProbeWaveWaitsForFailedWorkerAndCheckpoint(t *testing.T) {
	h := newProbeHarness(t, 2)
	h.report(idle(0, 5, 0))
	h.report(idle(1, 9, 0))
	h.m.ckptPending = 1
	if h.check() || h.m.waveOpen {
		t.Fatal("probed during a checkpoint epoch")
	}
	h.m.ckptPending = 0
	h.m.failed[1] = true
	if h.check() || h.m.waveOpen {
		t.Fatal("probed with a failed worker")
	}
}

func TestHeldJobDoesNotTerminate(t *testing.T) {
	h := newProbeHarness(t, 1)
	h.m.cfg.JobID = "held"
	release := HoldJob("held")
	h.report(idle(0, 1, 0))
	if h.check() || h.m.waveOpen {
		t.Fatal("held job probed")
	}
	release()
	h.check()
	h.report(idle(0, 1, h.m.wave))
	if !h.check() {
		t.Fatal("released job did not terminate")
	}
}
