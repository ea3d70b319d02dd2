package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tpal/internal/serve"
)

// listenTimeout is how long a started daemon has to answer /healthz.
const listenTimeout = 5 * time.Second

// buildDaemon compiles an uninstrumented tpal-serve from the checkout's
// own source into benchmark/out/. With a warm build cache it is a
// staleness check and costs a fraction of a second.
func buildDaemon(ctx context.Context, env *environment) (string, error) {
	bin := filepath.Join(env.OutDir, "tpal-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/tpal-serve")
	cmd.Dir = env.Root
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build tpal-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running tpal-serve child process.
type daemon struct {
	cmd  *exec.Cmd
	log  *os.File
	Base string // http://127.0.0.1:port
	Addr string
	done chan struct{} // closed when the child has been reaped
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free loopback port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin on a free loopback port with default flags
// except -workers, captures its output under out/, and returns once it
// answers /healthz.
func startDaemon(ctx context.Context, env *environment, bin, logName string, workers int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(env.OutDir, logName))
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(workers))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, log: logf, Base: "http://" + addr, Addr: addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled child carries no news
		close(d.done)
	}()

	deadline := time.Now().Add(listenTimeout)
	for {
		resp, err := http.Get(d.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.log.Close()
			return nil, fmt.Errorf("tpal-serve exited before listening on %s; see %s", addr, logf.Name())
		case <-ctx.Done():
			d.Stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.Stop()
			return nil, fmt.Errorf("tpal-serve did not listen on %s within %s; see %s", addr, listenTimeout, logf.Name())
		}
	}
}

// Stop asks the child to drain, kills it if it overstays, and returns
// once it has been reaped, so its port is free again.
func (d *daemon) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// peakRSSMB reads a process's VmHWM, its peak resident set, in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// snapshot reads the daemon's public /metrics.
func snapshot(client *http.Client, base string) (serve.MetricsSnapshot, error) {
	var m serve.MetricsSnapshot
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}
