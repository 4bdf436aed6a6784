package lifecycle

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/drift"
)

// sim is the shell the exhaustive test wraps around a Machine. It carries
// out commands the way webservice does — a Promote installs at once or is
// refused, a Rollback installs the earlier generation at once or fails —
// and tracks what the invariants are stated against.
type sim struct {
	m Machine
	// serving is the live generation; next is the number the next commit
	// takes.
	serving, next uint64
	// promoted is the generation the last promotion made live, while it
	// still serves (0 otherwise); promotedOver is what served before it.
	promoted, promotedOver uint64
	inFlight               bool
	ringN                  int
	// How the next Promote and Rollback turn out.
	promote  string
	rollFail bool
}

const (
	simThreshold = 4
	simBudget    = 16 // a verdict needs max(16/8, 10) = 10 samples
	simStep      = 8  // samples per ErrorSample event
)

var errRefused = errors.New("probe failed")

// step feeds ev to the machine, checks the invariants, and carries out the
// commands it returns.
func (s *sim) step(ev Event) error {
	if _, ok := ev.(RetrainDone); ok {
		s.inFlight = false
	}
	for _, c := range s.m.Step(ev) {
		var err error
		switch c := c.(type) {
		case StartRetrain:
			if s.inFlight {
				return errors.New("a second retrain started while one is in flight")
			}
			s.inFlight = true
		case Promote:
			if done, ok := ev.(RetrainDone); !ok || done.Err != nil {
				return fmt.Errorf("%#v promoted generation %d", ev, c.Generation)
			}
			if s.promote == "refused" {
				err = s.step(RetrainDone{Err: errRefused})
				break
			}
			over := s.serving
			err = s.install(c.Generation, s.promote == "watched")
			s.promoted, s.promotedOver = c.Generation, over
		case Rollback:
			if s.promoted == 0 || c.From != s.serving || c.From != s.promoted || c.To != s.promotedOver {
				return fmt.Errorf("rollback %d -> %d while %d serves; the last promotion was %d over %d",
					c.From, c.To, s.serving, s.promoted, s.promotedOver)
			}
			if s.rollFail {
				err = s.step(RolledBack{From: c.From, Reason: c.Reason + " (rollback FAILED)"})
				break
			}
			if err = s.install(c.To, false); err == nil {
				err = s.step(RolledBack{From: c.From, To: c.To, Reason: c.Reason})
			}
		default:
			return fmt.Errorf("unknown command %#v", c)
		}
		if err != nil {
			return err
		}
	}
	st := s.m.Status()
	if st.Retraining != s.inFlight {
		return fmt.Errorf("machine says retraining=%v, the shell has a retrain in flight=%v", st.Retraining, s.inFlight)
	}
	if e, ok := ev.(ErrorSample); ok && e.N >= simBudget && st.WatchArmed {
		return fmt.Errorf("watch still armed after %d samples, budget %d", e.N, simBudget)
	}
	return nil
}

// install makes gen live. A watched install carries a baseline (the
// candidate's held-out RMSE); the error ring restarts either way.
func (s *sim) install(gen uint64, baseline bool) error {
	ev := Installed{Generation: gen, Watchable: true}
	if baseline {
		ev.Canary = &core.CanaryRecord{Passed: true, CandidateRMSE: 1}
	}
	s.serving, s.promoted, s.ringN = gen, 0, 0
	return s.step(ev)
}

// alphabet is what can happen to the shell. ok is false where the event
// cannot occur (a retrain finishing while none runs).
var alphabet = []struct {
	name  string
	apply func(s *sim) (ok bool, err error)
}{
	{"ingest over threshold", func(s *sim) (bool, error) {
		return true, s.step(Ingested{Pending: simThreshold})
	}},
	{"drift trip", func(s *sim) (bool, error) {
		return true, s.step(Ingested{Pending: 1, Trip: &drift.Status{Tripped: true, TrippedBy: "input-distribution"}})
	}},
	{"retrain ok, watched", retrainOK("watched")},
	{"retrain ok, no baseline", retrainOK("unwatched")},
	{"retrain ok, install refused", retrainOK("refused")},
	{"retrain blocked", retrainErr(&core.CanaryBlockedError{Verdict: &core.CanaryRecord{Reason: "worse"}, Err: errors.New("worse")})},
	{"retrain failed", retrainErr(core.ErrNoNewJobs)},
	{"upload or adoption", func(s *sim) (bool, error) {
		s.next++
		return true, s.install(s.next, true)
	}},
	{"calm samples", sample(1, false)},
	{"spiking samples, rollback done", sample(5, false)},
	{"spiking samples, rollback fails", sample(5, true)},
}

func retrainOK(promote string) func(s *sim) (bool, error) {
	return func(s *sim) (bool, error) {
		if !s.inFlight {
			return false, nil
		}
		s.next++
		s.promote = promote
		return true, s.step(RetrainDone{Generation: s.next})
	}
}

func retrainErr(err error) func(s *sim) (bool, error) {
	return func(s *sim) (bool, error) {
		if !s.inFlight {
			return false, nil
		}
		return true, s.step(RetrainDone{Err: err})
	}
}

func sample(rmse float64, rollFail bool) func(s *sim) (bool, error) {
	return func(s *sim) (bool, error) {
		s.ringN += simStep
		s.rollFail = rollFail
		return true, s.step(ErrorSample{RMSE: rmse, N: s.ringN})
	}
}

// TestMachineExhaustive runs every event sequence up to maxLen over the
// alphabet from a booted server and checks, after every step: at most one
// retrain is in flight; only a successful retrain is promoted, so a
// canary-blocked candidate never is; a rollback targets the generation
// that served before the promotion, and fires only while the promoted
// generation still serves; a watch is disarmed once its budget is spent.
func TestMachineExhaustive(t *testing.T) {
	limit := 7
	if testing.Short() {
		limit = 5
	}
	boot := sim{m: Machine{Config: Config{RetrainThreshold: simThreshold, RollbackRatio: 2, RollbackWatch: simBudget}}, next: 1}
	if err := boot.install(1, false); err != nil {
		t.Fatal(err)
	}
	var seq []string
	var maxLen, sequences, rollbacks, blocked int
	var walk func(s sim)
	walk = func(s sim) {
		sequences++
		if len(seq) == maxLen {
			return
		}
		for _, a := range alphabet {
			next := s
			ok, err := a.apply(&next)
			if !ok {
				continue
			}
			seq = append(seq, a.name)
			if err != nil {
				t.Fatalf("after %s: %v", strings.Join(seq, " → "), err)
			}
			st := next.m.Status()
			if st.Rollbacks > s.m.Status().Rollbacks {
				rollbacks++
			}
			if st.CanaryBlocked > s.m.Status().CanaryBlocked {
				blocked++
			}
			walk(next)
			seq = seq[:len(seq)-1]
		}
	}
	// Deepening one length at a time reports a shortest failing sequence.
	for maxLen = 1; maxLen <= limit; maxLen++ {
		sequences, rollbacks, blocked = 0, 0, 0
		walk(boot)
	}
	maxLen = limit
	// The walk must reach the decisions it checks.
	if rollbacks == 0 || blocked == 0 {
		t.Fatalf("%d sequences reached %d rollbacks and %d canary blocks", sequences, rollbacks, blocked)
	}
	t.Logf("%d sequences up to length %d: %d rollbacks, %d canary blocks", sequences, maxLen, rollbacks, blocked)
}

// TestWatchBaselinePreference: a promotion's watch judges against the
// measured pre-promotion serving error when the ring held at least 20
// samples, else the candidate's held-out RMSE, else the reference's
// baseline; with none of them, or nothing to roll back to, it is not armed.
func TestWatchBaselinePreference(t *testing.T) {
	canary := &core.CanaryRecord{CandidateRMSE: 0.3}
	ref := &drift.Reference{BaselineRMSE: 0.4}
	for _, c := range []struct {
		name string
		ev   Installed
		want float64 // 0: no watch
	}{
		{"measured ring", Installed{RingRMSE: 0.2, RingN: 20, Canary: canary, Reference: ref}, 0.2},
		{"ring too short", Installed{RingRMSE: 0.2, RingN: 19, Canary: canary, Reference: ref}, 0.3},
		{"candidate holdout", Installed{Canary: canary, Reference: ref}, 0.3},
		{"reference", Installed{Reference: ref}, 0.4},
		{"no baseline", Installed{}, 0},
	} {
		for _, watchable := range []bool{true, false} {
			m := Machine{Config: Config{RollbackRatio: 2, RollbackWatch: 80}}
			m.Step(Installed{Generation: 1})
			m.Step(Ingested{Trip: &drift.Status{}})
			m.Step(RetrainDone{Generation: 2})
			ev := c.ev
			ev.Generation, ev.Watchable = 2, watchable
			m.Step(ev)
			want := c.want
			if !watchable {
				want = 0
			}
			if got := m.Status().WatchArmed; got != (want > 0) {
				t.Fatalf("%s (watchable %v): watch armed %v, want %v", c.name, watchable, got, want > 0)
			}
			if want == 0 {
				continue
			}
			// The spike verdict names the baseline it was judged against.
			cmds := m.Step(ErrorSample{RMSE: 2 * want, N: 10})
			if len(cmds) != 1 {
				t.Fatalf("%s: spike to 2x the baseline gave %#v", c.name, cmds)
			}
			if rb, ok := cmds[0].(Rollback); !ok || rb.From != 2 || rb.To != 1 ||
				!strings.HasSuffix(rb.Reason, fmt.Sprintf("baseline %.4f", want)) {
				t.Fatalf("%s: spike to 2x the baseline gave %#v", c.name, cmds)
			}
		}
	}
}

func TestShouldAdoptRule(t *testing.T) {
	cases := []struct {
		name     string
		localGen uint64
		localFp  string
		peerGen  uint64
		peerFp   string
		want     bool
	}{
		{"newer content", 1, "aaa", 2, "bbb", true},
		{"newer number same content", 1, "aaa", 2, "aaa", false},
		{"same gen higher fp wins tie", 3, "aaa", 3, "bbb", true},
		{"same gen lower fp stays", 3, "bbb", 3, "aaa", false},
		{"older peer", 3, "aaa", 2, "bbb", false},
		{"checksumless peer", 1, "aaa", 5, "", false},
	}
	for _, c := range cases {
		if got := ShouldAdopt(c.localGen, c.localFp, c.peerGen, c.peerFp); got != c.want {
			t.Errorf("%s: ShouldAdopt=%v, want %v", c.name, got, c.want)
		}
	}
	// Split-brain symmetry: with equal generations and different content,
	// exactly one side adopts — the fleet converges instead of ping-ponging.
	a := ShouldAdopt(3, "aaa", 3, "bbb")
	b := ShouldAdopt(3, "bbb", 3, "aaa")
	if a == b {
		t.Errorf("tie-break not antisymmetric: both sides adopt=%v", a)
	}
}
