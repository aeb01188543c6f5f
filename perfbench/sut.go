package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running system-under-test process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	addrs  map[string]string // announced address by stdout prefix
	stderr bytes.Buffer
	exited chan struct{} // closed once the stdout reader has drained
	waited bool
	maxRSS int64 // peak resident set in KiB, known after stop
}

// vmHWM returns the peak resident set of a running process in KiB. It is
// read from /proc because a child's rusage maxrss also counts the memory
// of the parent it was forked from, which here is the benchmark.
func vmHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// startProc runs bin/name with args and waits until it has announced an
// address after each of the given stdout markers (e.g. "listening on
// http://"). The process's remaining stdout is drained in the background.
func startProc(ctx context.Context, bin, name string, args []string, markers ...string) (*proc, error) {
	p := &proc{name: name, addrs: make(map[string]string), exited: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(bin, name), args...)
	p.cmd.Stderr = &p.stderr
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	found := make(chan string, len(markers))
	go func() {
		defer close(p.exited)
		seen := make(map[string]bool)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			for _, m := range markers {
				if i := strings.Index(line, m); i >= 0 && !seen[m] {
					seen[m] = true
					found <- m + "\x00" + strings.Fields(line[i+len(m):])[0]
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	deadline := time.NewTimer(15 * time.Second)
	defer deadline.Stop()
	for len(p.addrs) < len(markers) {
		select {
		case f := <-found:
			m, addr, _ := strings.Cut(f, "\x00")
			p.addrs[m] = addr
		case <-p.exited:
			p.stop()
			return nil, fmt.Errorf("%s exited before it was ready: %s", name, strings.TrimSpace(p.stderr.String()))
		case <-deadline.C:
			p.stop()
			return nil, fmt.Errorf("%s announced no address within 15s", name)
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		}
	}
	return p, nil
}

// cpuStat returns the host's stolen and total CPU time, in clock ticks,
// from the first line of /proc/stat: user nice system idle iowait irq
// softirq steal.
func cpuStat() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// stop records the process's peak RSS, asks it to drain with SIGTERM,
// kills it if it has not exited after 10s and waits for it.
func (p *proc) stop() error {
	if p.waited {
		return nil
	}
	p.waited = true
	p.maxRSS, _ = vmHWM(p.cmd.Process.Pid) // 0 if it already exited
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-p.exited
		done <- p.cmd.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		err = <-done
	}
	if err != nil {
		return fmt.Errorf("%s: %v: %s", p.name, err, strings.TrimSpace(p.stderr.String()))
	}
	return nil
}

// stopAll stops every process and returns the first error and the summed
// peak RSS in MB.
func stopAll(ps []*proc) (float64, error) {
	var first error
	var kib int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			err := p.stop()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			kib += p.maxRSS
		}(p)
	}
	wg.Wait()
	return float64(kib) / 1024, first
}

// waitReady polls base/readyz until it answers 200.
func waitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 15s (last error %v)", base, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// runProc runs bin/name to completion and returns its stdout, wall time
// and peak RSS in KiB, sampled every 10ms while it runs.
func runProc(ctx context.Context, bin, name string, args ...string) (out []byte, wall time.Duration, maxRSS int64, err error) {
	cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err = cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for waiting := true; waiting; {
		select {
		case err = <-done:
			waiting = false
		case <-tick.C:
			if kib, e := vmHWM(cmd.Process.Pid); e == nil && kib > maxRSS {
				maxRSS = kib
			}
		}
	}
	wall = time.Since(start)
	if err != nil {
		return nil, wall, maxRSS, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return stdout.Bytes(), wall, maxRSS, nil
}
