package main

import (
	"bufio"
	"context"
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

// childRun is what one fullweb child process cost.
type childRun struct {
	// setup is exec to the first stdout line (stream) or to the first
	// /readyz 200 (serve).
	setup time.Duration
	// wall is exec to exit.
	wall     time.Duration
	cpu      time.Duration
	maxRSSKB int64
	stdout   []byte
}

// finish fills the exit-time figures from the reaped process.
func (r *childRun) finish(cmd *exec.Cmd, start time.Time, hwm *hwmWatch) {
	r.wall = time.Since(start)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	r.maxRSSKB = hwm.stop()
}

// hwmWatch samples a child's peak resident set (VmHWM) while it runs.
// The rusage maxrss of a child is no use here: Go starts children with
// vfork, and Linux carries the parent's high-water mark across the
// exec, so every child would report at least the benchmark's own peak.
type hwmWatch struct {
	done chan struct{}
	kb   chan int64
}

const hwmEvery = 5 * time.Millisecond

func watchHWM(pid int) *hwmWatch {
	w := &hwmWatch{done: make(chan struct{}), kb: make(chan int64, 1)}
	path := fmt.Sprintf("/proc/%d/status", pid)
	//lint:allow rawgo benchmark sampler, not an analysis fan-out; stop joins it
	go func() {
		var peak int64
		t := time.NewTicker(hwmEvery)
		defer t.Stop()
		for {
			peak = max(peak, readHWM(path))
			select {
			case <-w.done:
				w.kb <- peak
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// stop ends the sampling and returns the peak seen, in KiB. The last
// sample that found the process is at most hwmEvery before its exit.
func (w *hwmWatch) stop() int64 {
	close(w.done)
	return <-w.kb
}

// readHWM reads VmHWM in KiB from a /proc status file (0 once the
// process is gone).
func readHWM(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return n
		}
	}
	return 0
}

// runStream runs fullweb stream to completion.
func runStream(ctx context.Context, bin string, args []string) (childRun, error) {
	var r childRun
	cmd := exec.CommandContext(ctx, bin, append([]string{"stream"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	hwm := watchHWM(cmd.Process.Pid)
	br := bufio.NewReaderSize(stdout, 1<<16)
	first, ferr := br.ReadBytes('\n')
	r.setup = time.Since(start)
	rest, rerr := io.ReadAll(br)
	werr := cmd.Wait()
	r.finish(cmd, start, hwm)
	r.stdout = append(first, rest...)
	for _, err := range []error{ferr, rerr, werr} {
		if err != nil {
			return r, fmt.Errorf("fullweb stream: %w (stderr: %s)", err, strings.TrimSpace(stderr.String()))
		}
	}
	return r, nil
}

// streamSetup execs fullweb stream, times it to its header line and
// kills it.
func streamSetup(ctx context.Context, bin string, args []string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, append([]string{"stream"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	_, rerr := bufio.NewReader(stdout).ReadBytes('\n')
	d := time.Since(start)
	_ = cmd.Process.Kill()
	_ = cmd.Wait() // killed on purpose; the exit status says so
	return d, rerr
}

// serveChild is a started fullweb serve process in its own directory.
type serveChild struct {
	cmd    *exec.Cmd
	start  time.Time
	hwm    *hwmWatch
	base   string
	stdout strings.Builder
	stderr strings.Builder
}

// startServe execs fullweb serve in the README runbook configuration
// (one source, journal, checkpoint) on a free port under dir and waits
// for /readyz to answer 200.
func startServe(ctx context.Context, bin, dir string, client *http.Client) (*serveChild, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addrFile := filepath.Join(dir, "addr")
	s := &serveChild{}
	s.cmd = exec.CommandContext(ctx, bin, "serve", "-source", "a",
		"-wal", filepath.Join(dir, "wal"), "-checkpoint", filepath.Join(dir, "checkpoint"),
		"-listen", "127.0.0.1:0", "-listen-addr-file", addrFile)
	s.cmd.Stdout = &s.stdout
	s.cmd.Stderr = &s.stderr
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	s.hwm = watchHWM(s.cmd.Process.Pid)
	deadline := s.start.Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if s.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
				s.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			if resp, err := client.Get(s.base + "/readyz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(s.start), nil
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("fullweb serve not ready after 20s (stderr: %s)", strings.TrimSpace(s.stderr.String()))
}

// kill stops the child and reaps it.
func (s *serveChild) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait() // killed on purpose; the exit status says so
	s.hwm.stop()
}

// wait reaps the child once it exits on its own, killing it after
// timeout.
func (s *serveChild) wait(timeout time.Duration) (childRun, error) {
	done := make(chan error, 1)
	//lint:allow rawgo reaps the child so wait can time out; returns when the child exits
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(timeout):
		_ = s.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("did not exit within %v", timeout)
	}
	var r childRun
	r.finish(s.cmd, s.start, s.hwm)
	r.stdout = []byte(s.stdout.String())
	if err != nil {
		return r, fmt.Errorf("fullweb serve: %w (stderr: %s)", err, strings.TrimSpace(s.stderr.String()))
	}
	return r, nil
}
