package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one gsacs-server process with its own data directory.
type child struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan struct{}
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
const clockTicks = 100

// startChild launches the server with the shipped defaults (admission,
// metrics, SLO, workload table and audit on) plus a durable WAL at
// -fsync always, and waits until /healthz answers ready. It returns the
// time from launch to that first ready answer.
func startChild(ctx context.Context, bin, dir string) (*child, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-sites", strconv.Itoa(scenarioSites), "-seed", strconv.Itoa(scenarioSeed),
		"-data-dir", filepath.Join(dir, "data"), "-fsync", "always",
		"-writer-role", writerRole)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, client: newClient(), done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is of no interest once we stop it
		close(c.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if c.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				c.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if c.base != "" {
			if status, _, err := c.get(ctx, "/healthz"); err == nil && status == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("server exited during start-up; see %s", filepath.Join(dir, "server.log"))
		case <-ctx.Done():
			c.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, errors.New("server not ready within 60s")
		}
	}
}

// stop terminates the server and waits until it has exited.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.client.CloseIdleConnections()
}

func newClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2
	tr.MaxConnsPerHost = 2
	tr.DisableCompression = true
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

func (c *child) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *child) get(ctx context.Context, path string) (int, []byte, error) {
	return c.do(ctx, http.MethodGet, path, nil)
}

// storeTriples reads the triple count from /v1/store.
func (c *child) storeTriples(ctx context.Context) (int, error) {
	status, body, err := c.get(ctx, "/v1/store")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/v1/store: status %d", status)
	}
	var st struct {
		Triples int `json:"triples"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("/v1/store: %w", err)
	}
	return st.Triples, nil
}

// cpuTime reads the server's user plus system CPU time from /proc.
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB reads the server's VmHWM (peak resident set) from /proc.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", sc.Text())
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}
