package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// vmHWM returns the peak resident set size (VmHWM) of process pid in MiB,
// read from /proc/<pid>/status. pid 0 means this process.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}

// procSample is this process's allocation and GC CPU counters at one
// instant; the difference of two samples describes the window between.
type procSample struct {
	totalAlloc uint64
	gcCPU      float64
	allCPU     float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	ps := procSample{totalAlloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		ps.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		ps.allCPU = s[1].Value.Float64()
	}
	return ps
}

// cpuTicks returns the steal and total jiffies of the host's aggregate
// CPU line in /proc/stat. Steal is time the hypervisor gave this machine's
// CPUs to other guests while they had work to do; ok is false where the
// file is missing or malformed.
func cpuTicks() (steal, total float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user .. steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
