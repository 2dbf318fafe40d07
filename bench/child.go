package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/tasti"
)

// buildDir is where the harness keeps everything it writes, relative to the
// repository root: the server binary and one temp dir per run.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the directory holding
// cmd/tastiserve (the harness is started with `go run -C bench .`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tastiserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/tastiserve not found above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/tastiserve once into root/.bench_build/bin.
func buildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "tastiserve")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/tastiserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tastiserve: %w\n%s", err, out)
	}
	return bin, nil
}

// serverFlags are the fixed tastiserve flags of every workload; the harness
// appends -size, -reps, -snapshot, -wal-dir and -addr per child, and the
// traced pass overrides -trace-sample (later flags win).
var serverFlags = []string{
	"-dataset", corpusName, "-seed", strconv.Itoa(corpusSeed),
	"-train", "300", "-shards", "2", "-parallelism", "2",
	"-trace-sample", "0", "-health-interval", "0", "-label-flush", "0",
	"-refresh-auto=false",
}

// child is one tastiserve process serving out of dir.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	exited  chan struct{}
	waitErr error
}

// startChild launches tastiserve over dir (snapshot dir/ix.snap, WAL
// dir/wal), with stderr appended to dir/stderr.log — a file, never a pipe,
// so a chatty server can never block on the harness. The caller must stop or
// kill it.
func startChild(bin, dir string, records, reps int, extra ...string) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "stderr.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor after Start

	args := append([]string{}, serverFlags...)
	args = append(args,
		"-size", strconv.Itoa(records), "-reps", strconv.Itoa(reps),
		"-snapshot", filepath.Join(dir, "ix.snap"), "-wal-dir", filepath.Join(dir, "wal"),
		"-addr", addr)
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	c := &child{cmd: cmd, base: "http://" + addr, started: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// waitReady polls /readyz until it answers 200 and returns the time since
// the process was started.
func (c *child) waitReady(ctx context.Context, client *http.Client) (time.Duration, error) {
	for {
		resp, err := client.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is irrelevant
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.started), nil
			}
		}
		select {
		case <-c.exited:
			return 0, fmt.Errorf("tastiserve exited before it was ready: %v", c.waitErr)
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM (graceful drain: the server flushes its ingest queue
// and seals the WAL) and waits; a server that does not exit in time is
// killed and reported.
func (c *child) stop() error {
	select {
	case <-c.exited:
		return fmt.Errorf("tastiserve had already exited: %v", c.waitErr)
	default:
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-c.exited:
		return c.waitErr
	case <-time.After(30 * time.Second):
		c.kill()
		return errors.New("tastiserve ignored SIGTERM for 30 s; killed")
	}
}

// kill ends the process unconditionally and reaps it. Safe on an exited
// child, so every start is paired with a deferred kill.
func (c *child) kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-c.exited
}

// procUsage reads the child's CPU time (utime+stime) and peak resident set
// from /proc.
func (c *child) procUsage() (cpu time.Duration, rssPeakMB float64, err error) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 14 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad cpu fields in /proc/%s/stat", pid)
	}
	const clockTick = 100 // USER_HZ; fixed at 100 on Linux
	cpu = time.Duration(utime+stime) * time.Second / clockTick

	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("bad VmHWM %q", v)
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// scrape reads /metrics into a map keyed by sample name; a sample with a
// phase label is keyed name{phase=value}. Other labels are dropped: the
// harness reads only unlabelled counters and the build phases.
func (c *child) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %s", resp.Status)
	}
	fams, err := tasti.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			key := s.Name
			if v, ok := s.Labels["phase"]; ok {
				key += "{phase=" + v + "}"
			}
			out[key] = s.Value
		}
	}
	return out, nil
}

// call sends a bodyless request to path and returns the body of its 200.
func (c *child) call(client *http.Client, method, path string) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s answered %s: %s", method, path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
