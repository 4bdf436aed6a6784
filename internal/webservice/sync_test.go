package webservice

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
)

// testReplica is one real aiio-server replica: a Server over its own
// registry store, seeded with the shared ensemble as generation 1.
type testReplica struct {
	WS    *Server
	Store *core.Store
	HTTP  *httptest.Server
}

func (r *testReplica) URL() string { return r.HTTP.URL }

// newReplica commits models to a fresh store under dir and serves them.
func newReplica(t testing.TB, dir string, models *core.Ensemble) *testReplica {
	t.Helper()
	store := core.OpenStore(dir)
	if _, err := store.Save(models); err != nil {
		t.Fatalf("seed store: %v", err)
	}
	ens, rep, err := store.Load()
	if err != nil {
		t.Fatalf("load store: %v", err)
	}
	ws := NewServer(ens, fastOpts())
	ws.Store = store
	ws.SetGeneration(rep)
	srv := httptest.NewServer(ws.Handler())
	t.Cleanup(srv.Close)
	return &testReplica{WS: ws, Store: store, HTTP: srv}
}

// syncerFor wires a pull syncer for one replica against peers.
func syncerFor(r *testReplica, peers ...string) *Syncer {
	return &Syncer{
		Server: r.WS,
		Peers:  peers,
	}
}

// TestSyncConvergesFollower: a new generation committed on one replica is
// pulled, verified, and hot-swapped by a peer, and the served responses
// advertise the new fingerprint.
func TestSyncConvergesFollower(t *testing.T) {
	models := ensemble(t)
	dir := t.TempDir()
	leader := newReplica(t, filepath.Join(dir, "leader"), models)
	follower := newReplica(t, filepath.Join(dir, "follower"), models)

	// Commit different content on the leader: a one-model subset has a
	// different manifest fingerprint than the shared two-model seed.
	subset := &core.Ensemble{Models: models.Models[:1]}
	gen, err := leader.Store.Save(subset)
	if err != nil {
		t.Fatal(err)
	}
	ens, rep, err := leader.Store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.WS.AdoptGeneration(ens, rep); err != nil {
		t.Fatal(err)
	}
	leaderFp := rep.Fingerprint
	if leaderFp == "" {
		t.Fatal("leader generation has no fingerprint")
	}
	if fp := follower.WS.GenerationReport().Fingerprint; fp == leaderFp {
		t.Fatal("fixture broken: leader and follower already share content")
	}

	sy := syncerFor(follower, leader.URL())
	adopted, err := sy.SyncOnce(context.Background())
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if !adopted {
		t.Fatal("follower did not adopt the leader's newer generation")
	}
	got := follower.WS.GenerationReport()
	if got.Fingerprint != leaderFp {
		t.Fatalf("follower fingerprint %.12s, leader %.12s — fleet did not converge", got.Fingerprint, leaderFp)
	}
	if got.Generation < gen {
		t.Fatalf("follower generation %d below leader's %d", got.Generation, gen)
	}

	// The swap must be visible on the serving path, not just the report.
	resp, err := http.Post(follower.URL()+"/api/v1/diagnose", "text/plain",
		recordBody(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose after adoption: HTTP %d", resp.StatusCode)
	}
	if fp := resp.Header.Get("X-AIIO-Fingerprint"); fp != leaderFp {
		t.Errorf("serving fingerprint %.12s, adopted %.12s", fp, leaderFp)
	}

	// A second sweep is a no-op: content identical, nothing to fetch.
	adopted, err = sy.SyncOnce(context.Background())
	if err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if adopted {
		t.Error("converged follower re-adopted an identical generation")
	}
}

// corruptingPeer proxies a real replica's generation endpoints but flips
// one byte in every model file: the torn-transfer adversary.
func corruptingPeer(t *testing.T, leader *testReplica) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.Path, "/files/") {
			resp, err := http.Get(leader.URL() + r.URL.Path)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		parts := strings.Split(r.URL.Path, "/")
		gen, _ := strconv.ParseUint(parts[4], 10, 64)
		file := parts[6]
		rc, err := leader.Store.OpenModelFile(gen, file)
		if err != nil {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		defer rc.Close()
		data, err := io.ReadAll(rc)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		data[len(data)/2] ^= 0x40 // the torn byte
		w.Write(data)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestSyncRejectsTornTransfer: a corrupted file stream fails SHA-256
// verification during import; nothing is committed and the old generation
// keeps serving.
func TestSyncRejectsTornTransfer(t *testing.T) {
	models := ensemble(t)
	dir := t.TempDir()
	leader := newReplica(t, filepath.Join(dir, "leader"), models)
	follower := newReplica(t, filepath.Join(dir, "follower"), models)

	subset := &core.Ensemble{Models: models.Models[:1]}
	if _, err := leader.Store.Save(subset); err != nil {
		t.Fatal(err)
	}
	ens, rep, err := leader.Store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.WS.AdoptGeneration(ens, rep); err != nil {
		t.Fatal(err)
	}

	before := follower.WS.GenerationReport().Fingerprint
	gensBefore, _ := follower.Store.Generations()

	evil := corruptingPeer(t, leader)
	sy := syncerFor(follower, evil.URL)
	adopted, err := sy.SyncOnce(context.Background())
	if adopted {
		t.Fatal("follower adopted a torn transfer")
	}
	if err == nil || !strings.Contains(err.Error(), "torn or corrupt") {
		t.Fatalf("torn transfer error not surfaced: %v", err)
	}
	gensAfter, _ := follower.Store.Generations()
	if len(gensAfter) != len(gensBefore) {
		t.Fatalf("torn transfer left %d generations on disk (was %d) — partial import committed",
			len(gensAfter), len(gensBefore))
	}
	if fp := follower.WS.GenerationReport().Fingerprint; fp != before {
		t.Fatal("serving fingerprint changed after a rejected transfer")
	}
}

// TestSyncSkipsUnreachablePeers: replication keeps converging while part
// of the fleet is down.
func TestSyncSkipsUnreachablePeers(t *testing.T) {
	models := ensemble(t)
	dir := t.TempDir()
	leader := newReplica(t, filepath.Join(dir, "leader"), models)
	follower := newReplica(t, filepath.Join(dir, "follower"), models)

	subset := &core.Ensemble{Models: models.Models[:1]}
	if _, err := leader.Store.Save(subset); err != nil {
		t.Fatal(err)
	}
	ens, rep, err := leader.Store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.WS.AdoptGeneration(ens, rep); err != nil {
		t.Fatal(err)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	sy := syncerFor(follower, deadURL, leader.URL())
	adopted, err := sy.SyncOnce(context.Background())
	if err != nil {
		t.Fatalf("sync with one dead peer: %v", err)
	}
	if !adopted {
		t.Fatal("live peer's generation not adopted while a dead peer was listed first")
	}
	if fp := follower.WS.GenerationReport().Fingerprint; fp != rep.Fingerprint {
		t.Fatal("follower did not converge on the live peer's content")
	}
}
