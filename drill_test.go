package aiio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The drills run the real aiio, aiio-server and aiio-router binaries end
// to end: crash a process at a named durable step (AIIO_CRASH, set only in
// that child's environment), kill one outright, restart, and check what
// the survivors serve. One harness builds the binaries once, starts
// servers on loopback ports it picks, polls their JSON endpoints against a
// deadline, and kills and reaps every child when the drill ends, printing
// the tail of each server's log if the drill failed.

// drillBins is the directory holding the three binaries once a drill has
// built them; TestMain removes it.
var drillBins struct {
	sync.Mutex
	dir string
}

func TestMain(m *testing.M) {
	code := m.Run()
	if drillBins.dir != "" {
		os.RemoveAll(drillBins.dir)
	}
	os.Exit(code)
}

// drill is one drill's harness: its binaries, its working directory (every
// relative path below lives there) and its HTTP client.
type drill struct {
	t    *testing.T
	bin  string
	dir  string
	http *http.Client
}

func newDrill(t *testing.T) *drill {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped under -short")
	}
	return &drill{t: t, bin: drillBinaries(t), dir: t.TempDir(), http: &http.Client{Timeout: 30 * time.Second}}
}

// drillBinaries builds aiio, aiio-server and aiio-router on first use.
func drillBinaries(t *testing.T) string {
	t.Helper()
	drillBins.Lock()
	defer drillBins.Unlock()
	if drillBins.dir == "" {
		dir, err := os.MkdirTemp("", "aiio-drill-")
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(goTool(t), "build", "-o", dir+string(filepath.Separator),
			"./cmd/aiio", "./cmd/aiio-server", "./cmd/aiio-router")
		if out, err := cmd.CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			t.Fatalf("%v: %v\n%s", cmd.Args, err, out)
		}
		drillBins.dir = dir
	}
	return drillBins.dir
}

// command prepares bin with args in the drill's directory. env adds
// variables to the child's environment only; AIIO_CRASH is never inherited.
func (d *drill) command(env []string, bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(d.bin, bin), args...)
	cmd.Dir = d.dir
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "AIIO_CRASH=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, env...)
	return cmd
}

// aiio runs the CLI to completion and returns its stdout and stderr, read
// whole; a non-zero exit fails the drill.
func (d *drill) aiio(args ...string) (stdout, stderr string) {
	d.t.Helper()
	var errb bytes.Buffer
	cmd := d.command(nil, "aiio", args...)
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		d.t.Fatalf("aiio %s: %v\n%s%s", strings.Join(args, " "), err, out, errb.Bytes())
	}
	return string(out), errb.String()
}

// crash runs the CLI with AIIO_CRASH=step and requires the injected exit
// status 3.
func (d *drill) crash(step string, args ...string) {
	d.t.Helper()
	out, err := d.command([]string{"AIIO_CRASH=" + step}, "aiio", args...).CombinedOutput()
	if code := exitCode(err); code != 3 {
		d.t.Fatalf("AIIO_CRASH=%s aiio %s: exit %d (%v), want the injected 3\n%s", step, strings.Join(args, " "), code, err, out)
	}
}

// exitCode is the status a finished child's Wait or Run returned: -1 when
// it did not exit on its own (killed by a signal, or never started).
func exitCode(err error) int {
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	}
	return -1
}

// proc is a server the drill started; it is killed and reaped when the
// drill ends.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  lockedBuffer
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, once done is closed
}

// lockedBuffer collects a child's output while the drill reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// tail returns the last n lines written.
func (b *lockedBuffer) tail(n int) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	lines := strings.SplitAfter(b.buf.String(), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "")
}

// start launches bin in the background with env added to its environment.
func (d *drill) start(name string, env []string, bin string, args ...string) *proc {
	d.t.Helper()
	p := &proc{name: name, cmd: d.command(env, bin, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.log, &p.log
	if err := p.cmd.Start(); err != nil {
		d.t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	d.t.Cleanup(func() {
		p.kill()
		if d.t.Failed() {
			d.t.Logf("%s log tail:\n%s", name, p.log.tail(30))
		}
	})
	return p
}

// kill sends SIGKILL and reaps the process.
func (p *proc) kill() {
	p.cmd.Process.Kill() // an error means it has exited already
	<-p.done
}

// stop asks the process to drain and exit (SIGTERM) and waits for it.
func (d *drill) stop(p *proc) {
	d.t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM) // an error means it has exited already; exit reports how
	if code := d.exit(p, 30*time.Second); code != 0 {
		d.t.Fatalf("%s exited %d after SIGTERM: %v", p.name, code, p.err)
	}
}

// exit waits up to within for p to exit on its own and returns its status.
func (d *drill) exit(p *proc, within time.Duration) int {
	d.t.Helper()
	select {
	case <-p.done:
		return exitCode(p.err)
	case <-time.After(within):
		d.t.Fatalf("%s still running after %s", p.name, within)
		return 0
	}
}

// drillPorts holds every port freeAddr has handed out in this process, so
// two servers of one drill never get the same one.
var drillPorts struct {
	sync.Mutex
	used map[int]bool
}

// freeAddr returns a loopback address with a port nothing listens on now.
// The child binds it only later, so the port is drawn from below the
// kernel's ephemeral range (32768 and up on Linux, 49152 and up on BSD,
// macOS and Windows): nothing that binds port 0 or dials out, another
// package's httptest server included, can take it in between.
func (d *drill) freeAddr() string {
	d.t.Helper()
	drillPorts.Lock()
	defer drillPorts.Unlock()
	if drillPorts.used == nil {
		drillPorts.used = map[int]bool{}
	}
	for try := 0; try < 100; try++ {
		port := 20000 + rand.Intn(12000)
		if drillPorts.used[port] {
			continue
		}
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		l.Close()
		drillPorts.used[port] = true
		return addr
	}
	d.t.Fatal("no free loopback port in 20000-31999 after 100 tries")
	return ""
}

// eventually retries check until it returns nil, failing the drill with
// its last error once within has passed.
func (d *drill) eventually(within time.Duration, what string, check func() error) {
	d.t.Helper()
	deadline := time.Now().Add(within)
	for {
		err := check()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("%s: %v (gave up after %s)", what, err, within)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// ready waits for p, listening on addr, to answer /readyz with 200.
func (d *drill) ready(p *proc, addr string) {
	d.t.Helper()
	d.eventually(10*time.Second, p.name+" ready", func() error {
		select {
		case <-p.done:
			d.t.Fatalf("%s exited before it was ready: %v", p.name, p.err)
		default:
		}
		resp, err := d.http.Get("http://" + addr + "/readyz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/readyz: HTTP %d", resp.StatusCode)
		}
		return nil
	})
}

// getJSON decodes the JSON body of GET url into v.
func (d *drill) getJSON(url string, v any) error {
	resp, err := d.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// mustJSON is getJSON that fails the drill on an error.
func (d *drill) mustJSON(url string, v any) {
	d.t.Helper()
	if err := d.getJSON(url, v); err != nil {
		d.t.Fatal(err)
	}
}

// diagnose posts body to base's single-job endpoint.
func (d *drill) diagnose(base string, body []byte) (*http.Response, []byte, error) {
	resp, err := d.http.Post(base+"/api/v1/diagnose", "text/plain", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// read returns the bytes of a file in the drill's directory.
func (d *drill) read(name string) []byte {
	d.t.Helper()
	data, err := os.ReadFile(filepath.Join(d.dir, name))
	if err != nil {
		d.t.Fatal(err)
	}
	return data
}

// copyDir copies the tree at src to dst, both in the drill's directory.
// go.mod targets go 1.22, so no os.CopyFS.
func (d *drill) copyDir(src, dst string) {
	d.t.Helper()
	root := filepath.Join(d.dir, src)
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		target := filepath.Join(d.dir, dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		d.t.Fatal(err)
	}
}

// generations is the part of GET /api/v1/generations the drills read.
type generations struct {
	ServingGeneration  uint64 `json:"serving_generation"`
	ServingFingerprint string `json:"serving_fingerprint"`
}

// kv returns the value report.KV printed for key in a CLI's output.
func kv(t *testing.T, out, key string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), key+":"); ok {
			return strings.TrimSpace(v)
		}
	}
	t.Fatalf("no %q line in:\n%s", key, out)
	return ""
}

// TestDrillCorruptGenerationFallsBack: flip one byte of a generation-2
// model file; the loader rejects generation 2 and serves generation 1,
// degraded but never dead, under either explainer.
func TestDrillCorruptGenerationFallsBack(t *testing.T) {
	d := newDrill(t)
	d.aiio("gen-db", "-jobs", "120", "-seed", "1", "-o", "db.darshan")
	d.aiio("train", "-db", "db.darshan", "-models", "models", "-fast")
	d.aiio("train", "-db", "db.darshan", "-models", "models", "-fast")
	d.read("models/generations/000002/manifest.json") // generation 2 was committed
	gobs, _ := filepath.Glob(filepath.Join(d.dir, "models/generations/000002/*.gob"))
	if len(gobs) == 0 {
		t.Fatal("generation 2 has no model files")
	}
	victim, err := os.ReadFile(gobs[0])
	if err != nil {
		t.Fatal(err)
	}
	victim[100] ^= 0xff
	if err := os.WriteFile(gobs[0], victim, 0o644); err != nil {
		t.Fatal(err)
	}
	d.aiio("gen-db", "-jobs", "1", "-seed", "7", "-o", "job.darshan")
	stdout, stderr := d.aiio("diagnose", "-models", "models", "-log", "job.darshan")
	var missing []string
	for _, want := range []string{"generation 2 rejected", "fallback generation 1"} {
		if !strings.Contains(stdout+stderr, want) {
			missing = append(missing, strconv.Quote(want))
		}
	}
	if len(missing) > 0 {
		t.Errorf("diagnose does not say %s; its warnings:\n%s", strings.Join(missing, " or "), stderr)
	}
	if stdout, _ := d.aiio("diagnose", "-models", "models", "-log", "job.darshan", "-explainer", "kernel"); !strings.Contains(stdout, "closest model") {
		t.Errorf("kernel diagnosis on the fallback generation names no closest model:\n%s", stdout)
	}
}

// TestDrillReplicaKillMidFlood: three replicas seeded at generation 1, the
// first trains generation 2, and the -peers pull loop converges the fleet
// without restarts. A flood through the router survives a kill -9 of one
// replica: every reply is a 200 with the fleet's one fingerprint or an
// admission-layer shed, the router marks the victim down, and the
// survivors keep serving fresh results.
func TestDrillReplicaKillMidFlood(t *testing.T) {
	d := newDrill(t)
	d.aiio("gen-db", "-jobs", "120", "-seed", "1", "-o", "db.darshan")
	d.aiio("train", "-db", "db.darshan", "-models", "rep1", "-fast")
	d.copyDir("rep1", "rep2")
	d.copyDir("rep1", "rep3")
	d.aiio("train", "-db", "db.darshan", "-models", "rep1", "-fast", "-seed", "99")

	addrs := []string{d.freeAddr(), d.freeAddr(), d.freeAddr()}
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	replicas := make([]*proc, len(addrs))
	for i := range addrs {
		var peers []string
		for j := range urls {
			if j != i {
				peers = append(peers, urls[j])
			}
		}
		replicas[i] = d.start(fmt.Sprintf("replica %d", i+1), nil, "aiio-server",
			"-models", fmt.Sprintf("rep%d", i+1), "-addr", addrs[i],
			"-peers", strings.Join(peers, ","), "-sync-interval", "300ms")
	}
	routerAddr := d.freeAddr()
	router := d.start("router", nil, "aiio-router", "-addr", routerAddr,
		"-probe-interval", "200ms", "-fail-threshold", "2", "-replicas", strings.Join(urls, ","))
	for i, p := range replicas {
		d.ready(p, addrs[i])
	}
	d.ready(router, routerAddr)

	// Fleet convergence through replication: every replica serves rep1's
	// generation-2 fingerprint without a restart.
	var gens generations
	d.mustJSON(urls[0]+"/api/v1/generations", &gens)
	fp := gens.ServingFingerprint
	if fp == "" {
		t.Fatal("replica 1 reports no serving fingerprint")
	}
	for _, u := range urls[1:] {
		d.eventually(15*time.Second, u+" converges on "+fp, func() error {
			var g generations
			if err := d.getJSON(u+"/api/v1/generations", &g); err != nil {
				return err
			}
			if g.ServingFingerprint != fp {
				return fmt.Errorf("serves %q", g.ServingFingerprint)
			}
			return nil
		})
	}

	// Flood through the router; kill -9 one replica mid-flood.
	d.aiio("gen-db", "-jobs", "1", "-seed", "7", "-o", "job.darshan")
	job := d.read("job.darshan")
	base := "http://" + routerAddr
	var ok, shed, stale, other int
	for i := 1; i <= 120; i++ {
		if i == 30 {
			replicas[1].kill()
		}
		resp, _, err := d.diagnose(base, job)
		switch {
		case err != nil:
			t.Logf("request %d: %v", i, err)
			other++
		case resp.StatusCode == http.StatusOK && resp.Header.Get("X-AIIO-Fingerprint") == fp:
			ok++
		case resp.StatusCode == http.StatusOK:
			stale++
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			shed++
		default:
			t.Logf("request %d: HTTP %d", i, resp.StatusCode)
			other++
		}
	}
	t.Logf("flood: %d ok, %d shed, %d stale, %d other", ok, shed, stale, other)
	if stale != 0 || other != 0 || ok < 60 {
		t.Fatalf("flood: %d stale and %d other replies (want 0 of each), %d ok (want ≥ 60)", stale, other, ok)
	}

	// Router convergence: the dead member is marked down and the survivors
	// keep serving fresh results.
	d.eventually(5*time.Second, "router marks "+urls[1]+" down", func() error {
		var h struct {
			Members []struct {
				URL     string `json:"url"`
				Healthy bool   `json:"healthy"`
			} `json:"members"`
		}
		if err := d.getJSON(base+"/healthz", &h); err != nil {
			return err
		}
		for _, m := range h.Members {
			if m.URL == urls[1] {
				if m.Healthy {
					return errors.New("still healthy")
				}
				return nil
			}
		}
		return fmt.Errorf("not a member: %+v", h.Members)
	})
	for i := 1; i <= 10; i++ {
		resp, _, err := d.diagnose(base, job)
		if err != nil {
			t.Fatalf("post-kill request %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill request %d: HTTP %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-AIIO-Fingerprint"); got != fp {
			t.Fatalf("post-kill request %d: stale serve, fingerprint %q, want %q", i, got, fp)
		}
	}
}

// lifecycleHealth is the part of an aiio-server /healthz body the
// lifecycle drill reads.
type lifecycleHealth struct {
	Joblog struct {
		Records int `json:"records"`
	} `json:"joblog"`
	Retrain struct {
		Busy bool `json:"busy"`
	} `json:"retrain"`
	Drift struct {
		Armed         bool `json:"armed"`
		DriftRetrains int  `json:"drift_retrains"`
	} `json:"drift"`
}

// TestDrillSelfHealingLifecycle: the drift monitor self-arms from live
// traffic; a 1000x workload shift trips it, and a canary-gated retrain
// promotes generation 2, whose diagnoses carry registry and canary
// provenance. Then the next auto-retrain dies at the registry's generation
// commit, before the rename that would publish it, and a restart serves
// generation 2 with the job log intact: degraded, never wrong.
func TestDrillSelfHealingLifecycle(t *testing.T) {
	d := newDrill(t)
	d.aiio("ingest", "-joblog-dir", "jl", "-gen", "200", "-seed", "5")
	d.aiio("retrain", "-joblog-dir", "jl", "-models", "reg", "-fast", "-train-models", "lightgbm,catboost", "-window", "100")
	addr := d.freeAddr()
	base := "http://" + addr
	serve := func(name string, env ...string) *proc {
		p := d.start(name, env, "aiio-server", "-models", "reg", "-addr", addr, "-joblog-dir", "jl",
			"-drift-psi", "0.5", "-drift-min-samples", "100",
			"-canary-holdout", "20", "-rollback-ratio", "2",
			"-retrain-fast", "-retrain-models", "lightgbm,catboost",
			"-retrain-window", "256", "-retrain-minibatch", "64")
		d.ready(p, addr)
		return p
	}
	health := func() lifecycleHealth {
		var h lifecycleHealth
		d.mustJSON(base+"/healthz", &h)
		return h
	}
	servingGeneration := func() uint64 {
		var g generations
		d.mustJSON(base+"/api/v1/generations", &g)
		return g.ServingGeneration
	}

	srv := serve("server")
	// Self-arm the monitor from live traffic (2x -drift-min-samples).
	d.aiio("ingest", "-server", base, "-gen", "200", "-seed", "6")
	if !health().Drift.Armed {
		t.Fatal("drift monitor not armed after 200 live jobs")
	}
	// The workload shifts 1000x: the monitor trips, a canary-gated retrain
	// runs, and generation 2 is promoted.
	d.aiio("ingest", "-server", base, "-gen", "150", "-seed", "7", "-shift-scale", "1000")
	d.eventually(120*time.Second, "drift-triggered retrain finishes", func() error {
		var h lifecycleHealth
		if err := d.getJSON(base+"/healthz", &h); err != nil {
			return err
		}
		if h.Drift.DriftRetrains != 1 || h.Retrain.Busy {
			return fmt.Errorf("drift_retrains %d, busy %v", h.Drift.DriftRetrains, h.Retrain.Busy)
		}
		return nil
	})
	if g := servingGeneration(); g != 2 {
		t.Fatalf("serving generation %d after the drift retrain, want 2", g)
	}
	// Provenance rides on diagnoses: registry and canary-gate advisories.
	d.aiio("gen-db", "-jobs", "1", "-seed", "9", "-o", "job.darshan")
	job := d.read("job.darshan")
	resp, body, err := d.diagnose(base, job)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose: %v %v %s", err, resp, body)
	}
	var diag struct {
		Advisories []struct {
			Source string `json:"source"`
		} `json:"advisories"`
	}
	if err := json.Unmarshal(body, &diag); err != nil {
		t.Fatal(err)
	}
	sources := map[string]bool{}
	for _, a := range diag.Advisories {
		sources[a.Source] = true
	}
	if !sources["model-registry"] || !sources["canary-gate"] {
		t.Fatalf("advisory sources %v, want model-registry and canary-gate", sources)
	}
	d.stop(srv)

	// Kill mid-promotion: the next auto-retrain dies at the registry's
	// generation commit (exit 3 = injected).
	srv = serve("crashing server", "AIIO_CRASH=gen-commit:1")
	d.aiio("ingest", "-server", base, "-gen", "150", "-seed", "8", "-shift-scale", "1000000")
	if code := d.exit(srv, 120*time.Second); code != 3 {
		t.Fatalf("server exited %d (%v) during the promotion, want the injected 3", code, srv.err)
	}

	// Restart: the torn promotion was never published, so the server comes
	// back serving generation 2 with the job log intact.
	serve("restarted server")
	if g := servingGeneration(); g != 2 {
		t.Errorf("restarted server serves generation %d, want 2", g)
	}
	if n := health().Joblog.Records; n != 700 {
		t.Errorf("restarted server's job log holds %d records, want 700", n)
	}
	resp, body, err = d.diagnose(base, job)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose after restart: %v %v %s", err, resp, body)
	}
	if g := resp.Header.Get("X-AIIO-Generation"); g != "2" {
		t.Errorf("diagnosis after restart from generation %q, want 2", g)
	}
}

// ingestedRe matches the local ingest summary.
var ingestedRe = regexp.MustCompile(`ingested into jl: \d+ accepted, \d+ duplicates`)

// TestDrillJobLogCrashRecovery: kill the CLI mid-append and mid-compaction,
// restart, and check exactly-once ingest survives both; then drain the
// backlog into a model generation and diagnose with it.
func TestDrillJobLogCrashRecovery(t *testing.T) {
	d := newDrill(t)
	// stat runs aiio joblog on the drill's log with args and returns the
	// value it printed for key.
	stat := func(key string, args ...string) string {
		t.Helper()
		out, _ := d.aiio(append([]string{"joblog", "-dir", "jl"}, args...)...)
		return kv(t, out, key)
	}
	wantRecords := func(after string) {
		t.Helper()
		if n := stat("records"); n != "400" {
			t.Fatalf("%s: the job log holds %s records, want 400", after, n)
		}
	}

	// Crash on the third fsync of the append path, then replay in full:
	// every job lands exactly once.
	d.crash("append-sync:3", "ingest", "-joblog-dir", "jl", "-gen", "400", "-seed", "5", "-batch", "32")
	if out, _ := d.aiio("ingest", "-joblog-dir", "jl", "-gen", "400", "-seed", "5", "-batch", "64"); !ingestedRe.MatchString(out) {
		t.Fatalf("replay printed no ingest summary:\n%s", out)
	}
	wantRecords("replay after a crash mid-append")
	if n := stat("duplicate frames"); n != "0" {
		t.Fatalf("the replay appended %s jobs the log already held", n)
	}

	// Crash mid-compaction, restart, compact cleanly.
	d.crash("compact-seal:1", "joblog", "-dir", "jl", "-compact")
	d.aiio("joblog", "-dir", "jl", "-compact")
	wantRecords("compaction after a crash mid-compaction")

	// Crash after the compacted segments are renamed, before the manifest
	// flips: the restart adopts them as byte-identical (hash, seq) copies
	// of live frames, which Scan masks and a clean compaction drops.
	d.crash("compact-manifest:1", "joblog", "-dir", "jl", "-compact")
	wantRecords("restart after a crash before the manifest flip")
	if n := stat("duplicate frames", "-compact"); n != "0" {
		t.Fatalf("a clean compaction left %s duplicate frames", n)
	}

	// Drain the backlog into a generation and diagnose with it.
	d.aiio("retrain", "-joblog-dir", "jl", "-models", "reg", "-fast", "-train-models", "lightgbm,catboost", "-window", "100")
	if n := stat("pending retrain"); n != "0" {
		t.Fatalf("%s jobs left in the backlog after the retrain", n)
	}
	d.aiio("gen-db", "-jobs", "1", "-seed", "7", "-o", "job.darshan")
	if out, _ := d.aiio("diagnose", "-models", "reg", "-log", "job.darshan"); !strings.Contains(out, "closest model") {
		t.Fatalf("diagnosis names no closest model:\n%s", out)
	}
}
