package main

// A jigsawd child process — built from ./cmd/jigsawd, started on a free
// loopback port, awaited on /healthz, killed on every exit path — and the
// figures read from outside it: /proc, /metrics, the heap profile's MemStats.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything the benchmark compiles, under the module root.
const buildDir = ".bench_build"

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/jigsawd and returns the binary's path.
func buildDaemon(ctx context.Context) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(root, buildDir, "bin", "jigsawd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/jigsawd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/jigsawd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running jigsawd.
type daemon struct {
	cmd    *exec.Cmd
	target *httpTarget
}

// startDaemon launches bin on a free loopback port and waits for /healthz.
// Cancelling ctx kills the process; so does the harness dying (see
// childAttr).
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start jigsawd: %w", err)
	}
	d := &daemon{cmd: cmd, target: newHTTPTarget("http://" + addr)}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var buf bytes.Buffer
		if status, err := d.target.do("GET", "/healthz", nil, &buf); err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("jigsawd on %s: no /healthz answer within 10s", addr)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the daemon and waits until it has gone.
func (d *daemon) stop() {
	d.target.client.CloseIdleConnections()
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 100

// procCPUSeconds is the user+system CPU time the process has used so far.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from its ')'.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return (utime + stime) / clockTick, nil
}

// procPeakRSSMB is VmHWM, the process's peak resident set, in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// scrape holds name → value for every sample line of a Prometheus text page
// (series name with its label set, verbatim), or every "# Key = value" line
// of a debug=1 heap profile.
type scrape map[string]float64

func scrapeText(t target, path, prefix, sep string) (scrape, error) {
	var buf bytes.Buffer
	status, err := t.do("GET", path, nil, &buf)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %v", path, status, err)
	}
	out := scrape{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		i := strings.LastIndex(line, sep)
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(line[i+len(sep):]), 64); err == nil {
			out[strings.TrimSpace(line[:i])] = v
		}
	}
	return out, sc.Err()
}

// scrapeMetrics reads /metrics.
func scrapeMetrics(t target) (scrape, error) { return scrapeText(t, "/metrics", "jigsawd_", " ") }

// scrapeMemStats reads the runtime.MemStats block that closes the debug=1
// heap profile.
func scrapeMemStats(t target) (scrape, error) {
	return scrapeText(t, "/debug/pprof/heap?debug=1", "# ", " = ")
}

// non2xx sums the request counter over every non-2xx status code.
func (s scrape) non2xx() float64 {
	var n float64
	for k, v := range s {
		if strings.HasPrefix(k, "http_requests_total{") && !strings.Contains(k, `code="2`) {
			n += v
		}
	}
	return n
}
