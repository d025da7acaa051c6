package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/pglserve from the checkout at root into
// root/.bench_build and returns the binary's path and the build time.
func buildServer(root string) (string, float64, error) {
	bin := filepath.Join(root, ".bench_build", "pglserve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pglserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/pglserve: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// serverProc is one running pglserve.
type serverProc struct {
	cmd       *exec.Cmd
	addr      string
	recovered bool
	startup   time.Duration // exec to ready line
	exited    chan error
}

// startServer runs pglserve on dir (created or reopened) and waits for its
// ready line. Its log goes to dir.log beside the data directory.
func startServer(bin, dir string, args []string) (*serverProc, error) {
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	argv := append([]string{"-dir", dir, "-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, argv...)
	cmd.Stderr = logf
	// The server must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, exited: make(chan error, 1)}
	ready := make(chan error, 1)
	go func() {
		var line struct {
			Addr      string `json:"addr"`
			Recovered bool   `json:"recovered"`
		}
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			ready <- fmt.Errorf("pglserve exited before its ready line (see %s.log)", dir)
		} else if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			ready <- fmt.Errorf("pglserve ready line %q: %v", sc.Text(), err)
		} else {
			p.addr, p.recovered = line.Addr, line.Recovered
			ready <- nil
		}
		for sc.Scan() { // drain, so Wait can close the pipe
		}
		p.exited <- cmd.Wait()
	}()
	select {
	case err := <-ready:
		if err != nil {
			p.kill()
			return nil, err
		}
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("pglserve not ready after 60 s")
	}
	p.startup = time.Since(start)
	return p, nil
}

// kill stops the server and waits until it has ended.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
	p.exited <- nil // idempotent: a second kill returns at once
}

// waitExit waits for the server to end by itself (after CRASH).
func (p *serverProc) waitExit(d time.Duration) error {
	select {
	case err := <-p.exited:
		p.exited <- err
		return nil
	case <-time.After(d):
		return fmt.Errorf("pglserve still running %v after CRASH", d)
	}
}

// cpuSeconds is the server's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	const clkTck = 100 // Linux USER_HZ on every supported architecture
	return float64(ut+st) / clkTck, nil
}

// peakRSSMB is the server's VmHWM, its peak resident set.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUSeconds is this process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
