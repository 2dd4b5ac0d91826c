package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestCheckClusterMode(t *testing.T) {
	for _, tc := range []struct {
		listen  string
		dynamic bool
		jobMem  int64
		want    string // "" = accepted
	}{
		{"", false, 0, ""},
		{"", true, 1 << 20, ""},
		{"127.0.0.1:0", false, 0, ""},
		{"127.0.0.1:0", false, 1 << 20, "-job-mem"},
		{"127.0.0.1:0", true, 0, "-dynamic"},
	} {
		err := checkClusterMode(tc.listen, tc.dynamic, tc.jobMem)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: refused: %v", tc, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: got %v, want an error naming %s", tc, err, tc.want)
		}
	}
}

// TestMain lets a test re-execute this binary as gminerd itself.
func TestMain(m *testing.M) {
	if os.Getenv("GMINERD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStartupRefusesClusterJobMem: a coordinator asked to enforce a
// per-job memory budget exits non-zero before loading the graph.
func TestStartupRefusesClusterJobMem(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-cluster-listen", "127.0.0.1:0", "-job-mem", "1048576", "-preset", "dblp-s")
	cmd.Env = append(os.Environ(), "GMINERD_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("gminerd started (err=%v):\n%s", err, out)
	}
	if !strings.Contains(string(out), "-job-mem") || strings.Contains(string(out), "graph:") {
		t.Fatalf("want a -job-mem refusal before the graph loads, got:\n%s", out)
	}
}
