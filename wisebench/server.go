package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one wise-serve child process listening on 127.0.0.1:0.
type server struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once cmd.Wait has returned
	err    error         // cmd.Wait's result, valid after exited closes
}

// startServer launches wise-serve and returns once it has printed its
// listening address. The caller must call stop.
func startServer(bin, model string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-models", model, "-addr", "127.0.0.1:0", "-reload-poll=-1s"}, args...)...)
	cmd.Stderr = os.Stderr
	// If the benchmark dies without stopping the server, the kernel stops
	// it, so no run leaves a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	lines := bufio.NewReader(stdout)
	first, readErr := lines.ReadString('\n')
	const marker = "listening on "
	if at := strings.Index(first, marker); readErr == nil && at >= 0 {
		if f := strings.Fields(first[at+len(marker):]); len(f) > 0 {
			s.url = f[0]
		}
	}
	go func() {
		// Keep draining stdout so the child never blocks on a full pipe;
		// Wait closes the pipe once the child has exited.
		_, _ = io.Copy(io.Discard, lines)
		s.err = cmd.Wait()
		close(s.exited)
	}()
	if s.url == "" {
		_ = s.stop() // the missing address is the failure to report
		return nil, fmt.Errorf("wise-serve did not report its address (read %q: %v)", first, readErr)
	}
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(s.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // drained; nothing left to lose
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("wise-serve exited before ready: %v", s.err)
		case <-time.After(500 * time.Microsecond):
		}
	}
	return errors.New("wise-serve not ready after 30s")
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// outlives the drain budget. It returns once the process has exited; an
// exit status other than wise-serve's drained 130 is reported.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("wise-serve did not drain within 15s; killed")
	}
	var exit *exec.ExitError
	if errors.As(s.err, &exit) && exit.ExitCode() == 130 {
		return nil
	}
	return fmt.Errorf("wise-serve exit: %v", s.err)
}

// cpuSeconds reads the process's user+system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the line, in USER_HZ (100 on Linux) ticks.
	rest := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(rest[11], 64)
	stime, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	return (utime + stime) / 100, nil
}

// rssMB reads the process's resident set (VmRSS) in MiB.
func (s *server) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// metricz is the part of wise-serve's /metricz snapshot the benchmark reads.
type metricz struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// scrape fetches /metricz.
func (s *server) scrape(client *http.Client) (metricz, error) {
	var m metricz
	resp, err := client.Get(s.url + "/metricz")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metricz: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}
