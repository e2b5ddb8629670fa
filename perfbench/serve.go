package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// node is one spmt-server process.
type node struct {
	url  string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed when the process has exited
}

// fleet owns the server processes of one set-up and the temporary
// directory their stores and logs live in. stop ends every process and
// removes the directory, whatever state the run is in.
type fleet struct {
	dir   string
	nodes []*node
}

// freePort asks the kernel for a free loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startFleet starts n spmt-server processes and waits until each
// answers /readyz. args gives node i's flags, given every node's URL.
// On error every process already started is stopped and the directory
// removed.
func startFleet(ctx context.Context, bin, workDir string, n int, args func(i int, urls []string, dir string) []string) (f *fleet, err error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "fleet-")
	if err != nil {
		return nil, err
	}
	f = &fleet{dir: dir}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	urls := make([]string, n)
	for i := range urls {
		port, err := freePort()
		if err != nil {
			return f, err
		}
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
	}
	for i := range n {
		nd := &node{url: urls[i], log: filepath.Join(dir, fmt.Sprintf("node%d.log", i)), done: make(chan struct{})}
		logf, err := os.Create(nd.log)
		if err != nil {
			return f, err
		}
		nd.cmd = exec.Command(bin, args(i, urls, dir)...)
		nd.cmd.Stdout, nd.cmd.Stderr = logf, logf
		nd.cmd.SysProcAttr = childAttr()
		if err := nd.cmd.Start(); err != nil {
			logf.Close()
			return f, fmt.Errorf("starting %s: %w", bin, err)
		}
		f.nodes = append(f.nodes, nd)
		go func() {
			nd.cmd.Wait() //nolint:errcheck // exit status is reported through the log
			logf.Close()
			close(nd.done)
		}()
	}
	for _, nd := range f.nodes {
		if err := nd.waitReady(ctx, 60*time.Second); err != nil {
			return f, err
		}
	}
	return f, nil
}

func (nd *node) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(nd.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-nd.done:
			return fmt.Errorf("server %s exited during start-up: %s", nd.url, tail(nd.log))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s not ready after %v: %s", nd.url, limit, tail(nd.log))
		}
	}
}

// tail returns the end of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 800 {
		b = b[len(b)-800:]
	}
	return string(bytes.TrimSpace(b))
}

// peakRSSMB sums the servers' high-water resident sets.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, nd := range f.nodes {
		v, err := peakRSSMB(strconv.Itoa(nd.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// cpuTime sums the servers' CPU time so far.
func (f *fleet) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, nd := range f.nodes {
		d, err := cpuTime(nd.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// stop sends SIGTERM to every server (each drains its store), kills any
// that has not exited after ten seconds, waits for all of them, and
// removes the fleet's directory. It is safe to call more than once.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	for _, nd := range f.nodes {
		nd.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	}
	for _, nd := range f.nodes {
		select {
		case <-nd.done:
		case <-time.After(10 * time.Second):
			nd.cmd.Process.Kill() //nolint:errcheck // already exited is fine
			<-nd.done
		}
	}
	f.nodes = nil
	if f.dir != "" {
		if err := os.RemoveAll(f.dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing", f.dir, err)
		}
	}
}

// childAttr makes a child process die with the benchmark: if the
// benchmark is killed before it can stop its children, the kernel kills
// them.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// newClient returns the HTTP client of one closed-loop caller: one
// keep-alive connection per server.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

// reply is one completed HTTP call.
type reply struct {
	status int
	body   []byte
	// firstLine is when the first NDJSON line arrived (batch streams).
	firstLine time.Duration
	lat       time.Duration
}

// post sends one JSON request and reads the whole reply. traceID, when
// set, names the server-side trace (X-Spmt-Trace).
func post(ctx context.Context, hc *http.Client, url string, body []byte, traceID string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Spmt-Trace", traceID)
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	r.firstLine = time.Since(start)
	if err != nil && !errors.Is(err, io.EOF) {
		return reply{}, err
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		return reply{}, err
	}
	r.lat = time.Since(start)
	r.body = append(first, rest...)
	return r, nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// compact returns the JSON without insignificant whitespace.
func compact(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
