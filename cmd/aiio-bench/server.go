package main

import (
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
)

// buildServer compiles the real aiio-server into dir. It runs from the
// module root, which is the working directory `go run ./cmd/aiio-bench`
// and run.sh are started in.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "aiio-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/aiio-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build aiio-server: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one spawned aiio-server process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	logFile *os.File
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it, so another process could in principle
// take it in between; the server then fails to become ready and the run
// fails with its stderr, which names the cause.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns bin at production-default flags plus extra, in its own
// process group, and waits until /readyz is green.
func startServer(ctx context.Context, bin, modelsDir, logPath string, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-models", modelsDir, "-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Its own process group, so stop() can kill the server and anything it
	// might have started with one signal.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logPath, logFile: logFile, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(ctx); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w\n--- server log ---\n%s", err, s.logTail())
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before it was ready: %v", s.waitErr)
		case <-ctx.Done():
			return fmt.Errorf("server not ready: %w", ctx.Err())
		default:
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the server's process group and waits for the process to end.
// It is safe to call more than once.
func (s *server) stop() {
	select {
	case <-s.exited:
	default:
		_ = syscall.Kill(-s.pid(), syscall.SIGKILL)
		<-s.exited
	}
	s.logFile.Close()
}

// logTail returns the end of the server's stdout+stderr.
func (s *server) logTail() string {
	data, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	const keep = 4 << 10
	if len(data) > keep {
		data = data[len(data)-keep:]
	}
	return strings.TrimSpace(string(data))
}

// health is the part of /healthz and /readyz the benchmark reads.
type health struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Coalesce struct {
		Batches uint64 `json:"batches"`
		Fused   uint64 `json:"fused"`
	} `json:"coalesce"`
	JobLog struct {
		Records         int `json:"records"`
		Quarantined     int `json:"quarantined"`
		DuplicateFrames int `json:"duplicate_frames"`
	} `json:"joblog"`
	Retrain struct {
		Busy      bool   `json:"busy"`
		LastError string `json:"last_error"`
	} `json:"retrain"`
	// From /readyz.
	Admission map[string]struct {
		Shed uint64 `json:"shed"`
	} `json:"admission"`
	Generation struct {
		Generation uint64 `json:"generation"`
	} `json:"generation"`
}

// delta is the counters' growth since before.
func (h *health) delta(before *health) *health {
	d := *h
	d.Cache.Hits -= before.Cache.Hits
	d.Cache.Misses -= before.Cache.Misses
	d.Coalesce.Batches -= before.Coalesce.Batches
	d.Coalesce.Fused -= before.Coalesce.Fused
	return &d
}

func (h *health) shed() uint64 {
	var n uint64
	for _, e := range h.Admission {
		n += e.Shed
	}
	return n
}

func getJSON(ctx context.Context, client *http.Client, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// readHealth merges /healthz and /readyz into one snapshot.
func (s *server) readHealth(ctx context.Context, client *http.Client) (*health, error) {
	h := &health{}
	if err := getJSON(ctx, client, s.base+"/healthz", h); err != nil {
		return nil, err
	}
	if err := getJSON(ctx, client, s.base+"/readyz", h); err != nil {
		return nil, err
	}
	return h, nil
}
