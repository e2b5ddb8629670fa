package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The teardown tests run this test binary as a stand-in spmt-server:
// with fakeServerEnv set, TestMain serves a minimal /v1 API on the -addr
// flag instead of running tests, and records its pid in the directory
// named by fakePidsEnv.
const (
	fakeServerEnv = "PERFBENCH_FAKE_SERVER" // "fail-warm" or "serve"
	fakePidsEnv   = "PERFBENCH_FAKE_PIDS"
)

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeServerEnv); mode != "" {
		os.Exit(fakeServer(mode, os.Args[1:]))
	}
	os.Exit(m.Run())
}

func fakeServer(mode string, args []string) int {
	addr := ""
	for i, a := range args {
		if a == "-addr" && i+1 < len(args) {
			addr = args[i+1]
		}
	}
	pid := strconv.Itoa(os.Getpid())
	if err := os.WriteFile(filepath.Join(os.Getenv(fakePidsEnv), pid), nil, 0o644); err != nil {
		return 1
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /v1/pairs", func(w http.ResponseWriter, r *http.Request) {
		if mode == "fail-warm" {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "{}")
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		fmt.Fprintln(w, `{"result":{"Committed":1}}`)
	})
	return map[bool]int{true: 1, false: 0}[http.ListenAndServe(addr, mux) != nil]
}

// runFailing runs a serving workload against the stand-in server and
// checks that, however the run ended, every server process has exited
// and no store or log directory is left behind.
func runFailing(t *testing.T, mode string, run workloadFunc, cancelAfter time.Duration) error {
	t.Helper()
	pids := t.TempDir()
	t.Setenv(fakeServerEnv, mode)
	t.Setenv(fakePidsEnv, pids)
	work := filepath.Join(t.TempDir(), "work")
	cfg := config{seed: 1, seconds: 30 * time.Second, serverBin: os.Args[0], workDir: work}
	ctx, cancel := context.WithTimeout(context.Background(), cancelAfter)
	defer cancel()
	_, err := run(ctx, cfg)
	started, _ := os.ReadDir(pids)
	if len(started) == 0 {
		t.Fatalf("no server process was started")
	}
	for _, p := range started {
		pid, _ := strconv.Atoi(p.Name())
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("server process %d is still there after the run (kill -0: %v)", pid, err)
		}
	}
	left, _ := os.ReadDir(work)
	for _, e := range left {
		t.Errorf("run left %s behind in its work directory", e.Name())
	}
	return err
}

func TestTeardownAfterSetupFailure(t *testing.T) {
	for name, run := range map[string]workloadFunc{"serve-cold": runServeCold, "serve-mixed": runServeMixed} {
		t.Run(name, func(t *testing.T) {
			err := runFailing(t, "fail-warm", run, time.Minute)
			if err == nil || !strings.Contains(err.Error(), "500") {
				t.Errorf("run error %v, want the warm-up's 500", err)
			}
		})
	}
}

func TestTeardownAfterInterruptedRun(t *testing.T) {
	// The measured window outlasts the context: the run is cut while
	// clients are mid-request, as on SIGINT or SIGTERM.
	err := runFailing(t, "serve", runServeCold, 3*time.Second)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("run error %v, want the context's", err)
	}
}
