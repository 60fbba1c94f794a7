package main

import (
	"bufio"
	"bytes"
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
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process of the benchmark: a server or a worker.
type proc struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	done   chan error

	stopOnce sync.Once
	stopErr  error
}

func startProc(bin string, args ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...), done: make(chan error, 1)}
	p.cmd.Stdout = &p.stdout
	// Access logs go nowhere: writing them is part of the server's cost,
	// keeping them is not part of the benchmark's.
	p.cmd.Stderr = nil
	// Children must not outlive a benchmark that is itself killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	return p, nil
}

// stop sends SIGTERM, waits up to grace for a clean exit, then kills; it
// returns only once the process has ended. Later calls return the first
// call's result.
func (p *proc) stop(grace time.Duration) error {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
		select {
		case p.stopErr = <-p.done:
		case <-time.After(grace):
			_ = p.cmd.Process.Kill()
			<-p.done
			p.stopErr = fmt.Errorf("%s did not stop within %s; killed", p.cmd.Path, grace)
		}
	})
	return p.stopErr
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpu is the process's CPU time so far: the run time of its threads, all
// of which live as long as the process (Go does not retire its threads).
func (p *proc) cpu() time.Duration {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
	var total time.Duration
	for _, t := range tasks {
		total += schedstatCPU(t)
	}
	return total
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// server is a running cmd/server process.
type server struct {
	*proc
	base     string        // "http://127.0.0.1:port"
	ready    time.Duration // process start to the first /readyz 200
	readyCPU time.Duration // the server's CPU time by then
}

// bootServer starts cmd/server with args plus a fresh -addr and waits for
// its first /readyz 200.
func bootServer(bin string, args []string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p, err := startProc(bin, append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, err
	}
	s := &server{proc: p, base: "http://" + addr}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(60 * time.Second)
	for {
		select {
		case err := <-p.done:
			return nil, fmt.Errorf("server exited during boot: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			_ = p.stop(5 * time.Second)
			return nil, errors.New("server not ready within 60s")
		}
		resp, err := probe.Get(s.base + "/readyz")
		if err != nil {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained for reuse; the status decides
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			s.ready = time.Since(start)
			s.readyCPU = p.cpu()
			return s, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// client is the load generator's HTTP client: keep-alive connections to
// the server, one per concurrent caller.
var client = &http.Client{
	Timeout:   150 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
}

// postJSON posts body and decodes the JSON reply into out. A non-2xx
// status is an error carrying the reply.
func postJSON(url string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	return nil
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses Prometheus text exposition (comments skipped).
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition value in %q", line)
		}
		series := line[:sp]
		s := promSample{name: series, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			s.name = series[:i]
			for _, kv := range strings.Split(strings.TrimSuffix(series[i+1:], "}"), ",") {
				if k, v, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(v, `"`)
				}
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// metricsSnapshot is one /metrics scrape.
type metricsSnapshot []promSample

// sum adds every series of the family name whose labels include match.
func (m metricsSnapshot) sum(name string, match map[string]string) float64 {
	var total float64
outer:
	for _, s := range m {
		if s.name != name {
			continue
		}
		for k, v := range match {
			if s.labels[k] != v {
				continue outer
			}
		}
		total += s.value
	}
	return total
}

func scrape(base string) (metricsSnapshot, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
