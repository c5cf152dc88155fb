package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one carcs-server child process. Its stdout and stderr
// (the request log) go to /dev/null, so log volume never competes with
// the load for the two cores.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	args []string
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with only -addr plus the given flags (-data);
// every other server setting keeps its default.
func startServer(bin string, flags ...string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr}, flags...)
	p := &serverProc{url: "http://" + addr, args: args}
	if err := p.launch(bin); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *serverProc) launch(bin string) error {
	cmd := exec.Command(bin, p.args...)
	cmd.Stdout, cmd.Stderr = nil, nil // os/exec connects nil to /dev/null
	// A server outlives no benchmark: if this process dies, so does it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", bin, err)
	}
	p.cmd = cmd
	p.done = make(chan struct{})
	done := p.done
	liveMu.Lock()
	live[p] = done
	liveMu.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark kills it
		liveMu.Lock()
		if live[p] == done {
			delete(live, p)
		}
		liveMu.Unlock()
		close(done)
	}()
	return nil
}

// live maps every running server process to its exit channel, so that a
// reference sample can pause them all.
var (
	liveMu sync.Mutex
	live   = map[*serverProc]chan struct{}{}
)

// pauseServers stops every running server process with SIGSTOP and waits
// until each is stopped, so that no work left running in a server slows
// a reference sample; the returned function resumes them.
func pauseServers() (resume func(), err error) {
	liveMu.Lock()
	pids := make([]int, 0, len(live))
	for p := range live {
		pids = append(pids, p.pid())
	}
	liveMu.Unlock()
	resume = func() {
		for _, pid := range pids {
			_ = syscall.Kill(pid, syscall.SIGCONT)
		}
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
			resume()
			return nil, fmt.Errorf("pause server %d: %w", pid, err)
		}
	}
	for _, pid := range pids {
		if err := waitStopped(pid); err != nil {
			resume()
			return nil, err
		}
	}
	return resume, nil
}

// waitStopped polls /proc/<pid>/stat until the process is in state T.
func waitStopped(pid int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return err
		}
		if i := bytes.LastIndexByte(b, ')'); i >= 0 && i+2 < len(b) && b[i+2] == 'T' {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %d did not stop", pid)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// restart launches the same binary with the same flags on the same port.
func (p *serverProc) restart(bin string) error { return p.launch(bin) }

// pid returns the running process id.
func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// kill sends SIGKILL and waits until the process has exited.
func (p *serverProc) kill() {
	if p == nil || p.cmd == nil {
		return
	}
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-p.done
}

// waitReady polls /api/health/ready until it answers 200, the process
// dies, or the timeout passes.
func (p *serverProc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.done:
			return fmt.Errorf("server %v exited before ready", p.args)
		default:
		}
		resp, err := c.Get(p.url + "/api/health/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %v not ready after %v", p.args, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// procStatus reads one "Key:   value kB" field of /proc/<pid>/status.
func procStatus(pid int, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatus(pid, "VmHWM")
	return float64(kb) / 1024, err
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds is utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after the
	// closing parenthesis are fixed: utime and stime are the 12th and
	// 13th after it.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTick, nil
}
