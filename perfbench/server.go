// The dpserver process under test: start, readiness, /proc sampling,
// /v1/metrics snapshots, and shutdown.

package main

import (
	"bytes"
	"context"
	"encoding/json"
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

	"minimaxdp/internal/engine"
	diskstore "minimaxdp/internal/store"
)

// serverProc is one running dpserver.
type serverProc struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	log   *os.File
	ready time.Duration // exec to first /readyz 200
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs dpserver with an empty artifact store under dir and
// waits for /readyz.
func startServer(ctx context.Context, bin, dir string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	storeDir := filepath.Join(dir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-n", strconv.Itoa(serverN),
		"-store-dir", storeDir,
		"-shutdown-grace", "2s")
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting dpserver: %w", err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				client.CloseIdleConnections()
				return s, nil
			}
		}
		if ctx.Err() != nil || time.Since(start) > 60*time.Second {
			s.stop()
			return nil, fmt.Errorf("dpserver not ready after %s", time.Since(start).Round(time.Millisecond))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the server and waits for it to exit.
func (s *serverProc) stop() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = s.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = s.cmd.Process.Kill()
			<-done
		}
	}
	s.log.Close()
}

// cpuTime returns the server's user+system CPU time from /proc.
func (s *serverProc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat")
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// rssPeakMB returns the server's peak resident set size (VmHWM).
func (s *serverProc) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// routeSnapshot is one route's counters in /v1/metrics.
type routeSnapshot struct {
	Count      uint64 `json:"count"`
	Errors     uint64 `json:"errors"`
	TotalNanos uint64 `json:"total_nanos"`
}

// serverMetrics is the part of /v1/metrics the benchmark reads.
type serverMetrics struct {
	Server struct {
		Routes map[string]routeSnapshot `json:"routes"`
	} `json:"server"`
	Engine engine.Metrics  `json:"engine"`
	Store  diskstore.Stats `json:"store"`
}

func (s *serverProc) metrics() (*serverMetrics, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(s.base + "/v1/metrics")
	if err != nil {
		return nil, fmt.Errorf("fetching /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	return &m, nil
}
