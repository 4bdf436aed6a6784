package webservice

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/lifecycle"
)

// DefaultSyncInterval paces the background generation-replication sweep.
const DefaultSyncInterval = 5 * time.Second

// Syncer pulls committed model-registry generations from peer replicas —
// the client half of the GET /api/v1/generations protocol this package
// serves — and hot-swaps fully verified sets into its Server.
// Replication is pull-based and leaderless: every replica polls every peer,
// and the adoption rule (lifecycle.ShouldAdopt) makes the fleet converge on
// the newest content no matter which replica an upload or retrain landed
// on. ImportGeneration commits the fetched set under max(localNext,
// peerGen), so numbers converge along with content.
type Syncer struct {
	// Server is the local replica: the fetched generations land in its
	// Store, and each is adopted through its AdoptGeneration (a refused
	// swap leaves the import on disk and the old set serving). Required.
	Server *Server
	// Peers are the other replicas' base URLs (the local replica may be
	// included; it is skipped by the fingerprint match).
	Peers []string
	// Interval paces Run's sweep (DefaultSyncInterval when <= 0).
	Interval time.Duration
	// Logf, when set, narrates adoptions and fetch failures.
	Logf func(format string, args ...any)
}

func (sy *Syncer) logf(format string, args ...any) {
	if sy.Logf != nil {
		sy.Logf(format, args...)
	}
}

// Run sweeps the peer list on the configured interval until ctx is done.
func (sy *Syncer) Run(ctx context.Context) {
	interval := sy.Interval
	if interval <= 0 {
		interval = DefaultSyncInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if _, err := sy.SyncOnce(ctx); err != nil {
				sy.logf("replica sync: %v", err)
			}
		case <-ctx.Done():
			return
		}
	}
}

// SyncOnce polls every peer once, adopting at most one generation (the
// first peer that wins the adoption rule; the next sweep catches anything
// newer). It returns whether an adoption happened. Unreachable peers are
// skipped, not fatal: replication must keep working while part of the
// fleet is down.
func (sy *Syncer) SyncOnce(ctx context.Context) (adopted bool, err error) {
	if sy.Server == nil || sy.Server.Store == nil {
		return false, fmt.Errorf("webservice: syncer needs a Server with a Store")
	}
	var firstErr error
	for _, peer := range sy.Peers {
		sum, perr := sy.fetchSummary(ctx, peer)
		if perr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("peer %s: %w", peer, perr)
			}
			continue
		}
		var local core.LoadReport
		if rep := sy.Server.GenerationReport(); rep != nil {
			local = *rep
		}
		if !lifecycle.ShouldAdopt(local.Generation, local.Fingerprint, sum.Generation, sum.Fingerprint) {
			continue
		}
		if aerr := sy.adopt(ctx, peer, sum); aerr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("peer %s: adopt generation %d: %w", peer, sum.Generation, aerr)
			}
			continue
		}
		return true, nil
	}
	return false, firstErr
}

// adopt fetches one peer generation — manifest, then every model file,
// each SHA-256-verified by ImportGeneration during the stream — commits it
// locally, re-loads the committed copy, and hands it to OnAdopt. Every
// failure path leaves the serving set untouched: a torn transfer dies in
// the import's temp directory, and a probe failure refuses the swap after
// the (valid) import.
func (sy *Syncer) adopt(ctx context.Context, peer string, sum GenerationSummary) error {
	man, err := sy.fetchManifest(ctx, peer, sum.Generation)
	if err != nil {
		return err
	}
	if fp := man.Fingerprint(); fp != sum.Fingerprint {
		// The peer committed a newer generation between the summary and the
		// manifest fetch; the next sweep sees the settled state.
		return fmt.Errorf("manifest fingerprint %.12s does not match advertised %.12s (peer mid-commit?)", fp, sum.Fingerprint)
	}
	gen, err := sy.Server.Store.ImportGeneration(man, func(file string) (io.ReadCloser, error) {
		return sy.fetchFile(ctx, peer, sum.Generation, file)
	})
	if err != nil {
		return err
	}
	// Reload from the local committed copy — never from transfer buffers —
	// so what serves is exactly what was verified onto disk.
	ens, localMan, err := sy.Server.Store.LoadGeneration(gen)
	if err != nil {
		return fmt.Errorf("reload imported generation %d: %w", gen, err)
	}
	fp := localMan.Fingerprint()
	if err := sy.Server.AdoptGeneration(ens, &core.LoadReport{Generation: gen, Fingerprint: fp}); err != nil {
		return err
	}
	sy.logf("replica sync: adopted generation %d (fingerprint %.12s) from %s", gen, fp, peer)
	return nil
}

func (sy *Syncer) fetchSummary(ctx context.Context, peer string) (GenerationSummary, error) {
	var sum GenerationSummary
	err := sy.getJSON(ctx, peer+"/api/v1/generations", &sum)
	return sum, err
}

func (sy *Syncer) fetchManifest(ctx context.Context, peer string, gen uint64) (*core.GenerationManifest, error) {
	var man core.GenerationManifest
	if err := sy.getJSON(ctx, fmt.Sprintf("%s/api/v1/generations/%d", peer, gen), &man); err != nil {
		return nil, err
	}
	return &man, nil
}

func (sy *Syncer) fetchFile(ctx context.Context, peer string, gen uint64, file string) (io.ReadCloser, error) {
	u := fmt.Sprintf("%s/api/v1/generations/%d/files/%s", peer, gen, url.PathEscape(file))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return resp.Body, nil
}

func (sy *Syncer) getJSON(ctx context.Context, u string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(into); err != nil {
		return fmt.Errorf("GET %s: decode: %w", u, err)
	}
	return nil
}
