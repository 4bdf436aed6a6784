package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// Seeds that do not depend on -seed: the training database and the held-out
// quality set are the same in every run, so set-up is identical work and
// eval_rmse of an unchanged generation repeats exactly. Only the traffic —
// which jobs are asked about, in which order — follows -seed (see
// generateJobs for the one exception, the ingest stream).
const (
	trainSeed   = 1
	heldOutSeed = 2
	ingestSeed  = 3
	// trafficSeedBase keeps derived traffic seeds clear of the three above.
	trafficSeedBase = 1000
)

// spec sizes one workload. Counts are fixed work: a phase is a fixed list
// of requests in a seed-determined order, so cache contents, retrain inputs
// and every counter repeat exactly between same-seed runs and only the
// clock varies.
type spec struct {
	name, why string
	// index is the workload's position in workloads(); it separates the
	// workloads' traffic seeds.
	index int
	// clients is the closed-loop client count: each client sends its next
	// request only when the previous reply has arrived (the callers are job
	// epilogues and sweep scripts that wait for their answer).
	clients int
	path    string
	// jobsPerReq logs travel in one request body.
	jobsPerReq int
	// warmReqs requests run before measurement (counted in setup_s); a
	// working-set workload warms up with one fill pass over the set instead.
	warmReqs int
	// reqsPerRound requests make one measured round; a run measures
	// rounds(seconds) rounds of identical shape.
	reqsPerRound int
	roundsPer12s int
	minRounds    int
	// workingSet > 0 draws every request from that many jobs (cache hits
	// after one fill pass); 0 means no job is ever sent twice.
	workingSet int
	// ingest marks the write-path workload: a round is a retrain cycle —
	// reqsPerRound ingest POSTs whose last one crosses -retrain-after, then
	// a wait for the new generation to serve. warmRounds cycles fill the
	// retrain window before measurement.
	ingest        bool
	warmRounds    int
	retrainWindow int
}

func (s spec) rounds(seconds int) int {
	r := (s.roundsPer12s*seconds + 6) / 12
	return max(r, s.minRounds)
}

// retrainAfter is the ingest backlog that triggers a retrain: exactly one
// round's jobs, so the last POST of a cycle crosses it.
func (s spec) retrainAfter() int { return s.reqsPerRound * s.jobsPerReq }

const (
	pathDiagnose = "/api/v1/diagnose"
	pathBatch    = "/api/v1/diagnose/batch"
	pathJobs     = "/api/v1/jobs"
)

// workloads are the four traffic mixes. Sizes were chosen on a 2-core
// shared box so that a measured phase takes about -seconds (12) there.
func workloads(nproc int) []spec {
	return []spec{
		{
			name: "cold_distinct",
			why:  "never-repeated single-job diagnoses: every request misses the cache, so Kernel SHAP, TreeSHAP, the merge and the coalescer do the work",
			// The server is CPU-bound for ~10 ms per request here, so two
			// clients keep both cores busy without the generator competing.
			clients: min(2, nproc), path: pathDiagnose, jobsPerReq: 1,
			warmReqs: 60, reqsPerRound: 75, roundsPer12s: 16, minRounds: 8,
		},
		{
			name: "warm_repeat",
			why:  "a 256-job working set that fits the default LRU: every request hits, so parse, cache key, advisor, JSON encode and net/http are the whole cost",
			// Sub-millisecond path: at two clients generator and server
			// fight for two cores and the run-to-run spread quadruples.
			clients: 1, path: pathDiagnose, jobsPerReq: 1,
			reqsPerRound: 800, roundsPer12s: 20, minRounds: 8,
			workingSet: 256,
		},
		{
			name:    "batch_offline",
			why:     "the nightly site sweep: 8 distinct jobs per batch request through DiagnoseBatch job-level parallelism, with no coalescer and no advisor",
			clients: 1, path: pathBatch, jobsPerReq: 8,
			warmReqs: 2, reqsPerRound: 14, roundsPer12s: 12, minRounds: 6,
		},
		{
			name: "ingest_retrain",
			why:  "the write path beside the reads: 64-log ingest POSTs into the fsynced job log, each 1024 jobs triggering a warm-start retrain, commit and hot swap",
			// One client, so WAL order — hence window sampling and the
			// trained model — is deterministic.
			clients: 1, path: pathJobs, jobsPerReq: 64,
			reqsPerRound: 16, roundsPer12s: 6, minRounds: 3,
			ingest: true, warmRounds: 2, retrainWindow: 2048,
		},
	}
}

func findWorkload(name string, nproc int) (spec, error) {
	var names []string
	for i, s := range workloads(nproc) {
		if s.name == name {
			s.index = i
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// request is one HTTP request of the plan.
type request struct {
	body []byte
	// jobs indexes plan.jobs: which records the body carries, in order.
	jobs []int
}

// plan is everything a run sends, fixed by (spec, seed, rounds) alone.
type plan struct {
	jobs   []*darshan.Record
	warm   []request
	rounds [][]request
	// extra indexes the reserve: distinct jobs no request carries. The
	// per-layer replay drives cold paths with them, and ingest_retrain's
	// correctness gate diagnoses them on the final generation.
	extra []int
}

// extraJobs is how many unsent distinct jobs a plan keeps in reserve.
const extraJobs = 256

// identity is the byte string the server's diagnosis cache keys a job on
// (application, performance tag, every counter's exact bits). Jobs with
// different identities can collide neither there nor — the job log hashes a
// superset of these fields — in the ingest dedup index.
func identity(rec *darshan.Record) string {
	buf := make([]byte, 0, len(rec.App)+1+8*(int(darshan.NumCounters)+1))
	buf = append(buf, rec.App...)
	buf = append(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.PerfMiBps))
	for _, c := range rec.Counters {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
	}
	return string(buf)
}

// distinctJobs generates n jobs whose identities differ from one another
// and from everything already in seen, and adds them to seen.
func distinctJobs(n int, seed int64, seen map[string]bool) []*darshan.Record {
	out := make([]*darshan.Record, 0, n)
	for s := seed; len(out) < n; s += 7919 {
		// Over-generate a little so one pass almost always suffices.
		ds := logdb.Generate(logdb.GenConfig{Jobs: n - len(out) + n/16 + 8, Seed: s})
		for _, rec := range ds.Records {
			if id := identity(rec); !seen[id] && len(out) < n {
				seen[id] = true
				out = append(out, rec)
			}
		}
	}
	return out
}

func encodeJobs(jobs []*darshan.Record, idx []int) ([]byte, error) {
	ds := &darshan.Dataset{}
	for _, i := range idx {
		ds.Append(jobs[i])
	}
	var buf bytes.Buffer
	if err := darshan.WriteDataset(&buf, ds); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// trafficSeed derives the workload's generator seed from -seed.
func trafficSeed(s spec, seed int64) int64 {
	return trafficSeedBase + seed*8 + int64(s.index)
}

// generateJobs makes a plan's jobs: sent of them for the requests, then the
// reserve. The ingest stream is the one input that does not follow -seed: a
// retrain's work depends on its data (early stopping), so seed-dependent
// streams moved jobs_per_s by ±20 % and eval_rmse by ±13 % between seeds at
// identical code — more than any bound could absorb. There the seed picks
// only the reserve: the jobs diagnosed on the final generation.
func generateJobs(s spec, seed int64, sent int) []*darshan.Record {
	stream := trafficSeed(s, seed)
	if s.ingest {
		stream = ingestSeed
	}
	seen := make(map[string]bool, sent+extraJobs)
	jobs := distinctJobs(sent, stream, seen)
	// +4 steps over the four workload indexes folded into trafficSeed.
	jobs = append(jobs, distinctJobs(extraJobs, trafficSeed(s, seed)+4, seen)...)
	for i, rec := range jobs {
		rec.JobID = int64(i) + 1
	}
	return jobs
}

// buildPlan lays out every request of a run.
func buildPlan(s spec, seed int64, rounds int) (*plan, error) {
	p := &plan{}
	mk := func(idx []int) (request, error) {
		body, err := encodeJobs(p.jobs, idx)
		return request{body: body, jobs: idx}, err
	}
	var err error
	if s.workingSet > 0 {
		// One fill pass over the set, then seed-ordered draws from it.
		p.jobs = generateJobs(s, seed, s.workingSet)
		reqs := make([]request, s.workingSet)
		for i := range reqs {
			if reqs[i], err = mk([]int{i}); err != nil {
				return nil, err
			}
		}
		p.warm = reqs
		rng := rand.New(rand.NewSource(trafficSeed(s, seed)))
		p.rounds = make([][]request, rounds)
		for r := range p.rounds {
			p.rounds[r] = make([]request, s.reqsPerRound)
			for k := range p.rounds[r] {
				p.rounds[r][k] = reqs[rng.Intn(s.workingSet)]
			}
		}
		p.extra = seq(s.workingSet, extraJobs)
		return p, nil
	}

	warmReqs := s.warmReqs + s.warmRounds*s.reqsPerRound
	p.jobs = generateJobs(s, seed, (warmReqs+rounds*s.reqsPerRound)*s.jobsPerReq)
	next := 0
	take := func() (request, error) {
		idx := seq(next, s.jobsPerReq)
		next += s.jobsPerReq
		return mk(idx)
	}
	p.warm = make([]request, warmReqs)
	for i := range p.warm {
		if p.warm[i], err = take(); err != nil {
			return nil, err
		}
	}
	p.rounds = make([][]request, rounds)
	for r := range p.rounds {
		p.rounds[r] = make([]request, s.reqsPerRound)
		for k := range p.rounds[r] {
			if p.rounds[r][k], err = take(); err != nil {
				return nil, err
			}
		}
	}
	p.extra = seq(next, extraJobs)
	return p, nil
}

// seq is the n consecutive integers starting at from.
func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}
