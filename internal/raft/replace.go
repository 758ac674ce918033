// Automated replica replacement: the terminal fail-slow mitigation.
// Quarantine (sentinel.go) is graceful degradation — the group keeps
// serving but runs one failure closer to unavailability for as long
// as the slow replica stays slow. When the mitigate.Policy escalates
// a peer to condemned (rehabilitation kept failing, or the cumulative
// slow time blew the budget), the leader replaces it: remove the
// condemned voter from the configuration, join a spare as a learner
// (snapshot bootstrap, then catch-up), and promote the spare once it
// has caught up — restoring full replication factor while the group
// keeps serving traffic.
package raft

import (
	"errors"
	"time"

	"depfast/internal/core"
	"depfast/internal/obs"
)

// replacementDeadline bounds one replacement attempt end to end. Past
// it the driver gives up; the policy keeps the peer condemned, so the
// next sentinel tick schedules a fresh attempt.
const replacementDeadline = 15 * time.Second

// beginReplacement starts the replacement pipeline for a condemned
// voter, at most one at a time. Baton context only.
func (s *Server) beginReplacement(p string) {
	if !s.cfg.AutoReplace || s.replacing != "" || s.role != Leader || s.transferPending {
		return
	}
	if p == s.cfg.ID || !s.isVoter(p) || s.removed[p] || s.confChangePending() {
		return
	}
	s.replacing = p
	term := s.term
	s.rt.Spawn("replace-"+p, func(rc *core.Coroutine) {
		defer func() { s.replacing = "" }()
		s.driveReplacement(rc, p, term)
	})
}

// pickSpare returns the first configured spare that is neither a
// member nor itself removed, or "".
func (s *Server) pickSpare() string {
	for _, sp := range s.cfg.Spares {
		if sp != s.cfg.ID && !s.isMember(sp) && !s.removed[sp] {
			return sp
		}
	}
	return ""
}

// driveReplacement runs remove → spare join → catch-up → promote.
// Each step is a committed ConfChange (one in flight at a time); the
// policy keeps the condemned verdict until the removal commits, so a
// failed attempt is retried by a later sentinel tick rather than
// looping here on errors.
func (s *Server) driveReplacement(co *core.Coroutine, p string, term uint64) {
	if s.role != Leader || s.term != term {
		return
	}
	if _, err := s.proposeConf(co, &ConfChange{Kind: ConfRemove, Node: p}); err != nil {
		return
	}
	spare := s.pickSpare()
	if spare == "" {
		// No spare available: the removal alone still ends the fail-slow
		// episode, at the cost of a smaller voter set.
		s.rec.Emit(obs.Event{Type: obs.ReplacementCompleted, Node: s.cfg.ID, Peer: p,
			Detail: "removed-only"})
		return
	}
	// Compact first so the learner's snapshot bootstrap carries the
	// post-removal config and the shortest possible log suffix.
	s.forceSnapshot()
	if _, err := s.proposeConf(co, &ConfChange{Kind: ConfAddLearner, Node: spare}); err != nil {
		return
	}
	// Poll the learner's progress; promote once it is caught up, and
	// retry while it falls back behind or the add has not committed.
	deadline := time.Now().Add(replacementDeadline)
	for caughtUp := false; s.role == Leader && s.term == term && time.Now().Before(deadline); {
		if !caughtUp && s.caughtUp(spare) {
			caughtUp = true
			s.rec.Emit(obs.Event{Type: obs.LearnerCaughtUp, Node: s.cfg.ID, Peer: spare,
				Fields: map[string]float64{"match_index": float64(s.prs[spare].match)}})
		}
		if caughtUp {
			_, err := s.proposeConf(co, &ConfChange{Kind: ConfPromote, Node: spare})
			if err == nil {
				s.rec.Emit(obs.Event{Type: obs.ReplacementCompleted, Node: s.cfg.ID, Peer: p,
					Detail: spare})
				return
			}
			if !errors.Is(err, ErrLearnerBehind) && !errors.Is(err, ErrConfPending) {
				return
			}
		}
		if co.Sleep(5*time.Millisecond) != nil {
			return
		}
	}
}
