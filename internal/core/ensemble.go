package core

import (
	"fmt"

	"memdos/internal/pcm"
)

// Vote selects how an Ensemble combines member alarms.
type Vote int

// Voting rules.
const (
	// Any alarms when any member alarms (maximizes recall — the paper's
	// Section VII suggests DNN for adaptive attacks; pairing it with SDS
	// under Any keeps SDS's Scenario 1 strengths without losing DNN's
	// responsiveness).
	Any Vote = iota
	// All alarms only when every member agrees (maximizes specificity —
	// the rule SDS itself uses to combine SDS/B and SDS/P).
	All
	// Majority alarms when more than half the members agree.
	Majority
)

// String names the vote rule.
func (v Vote) String() string {
	switch v {
	case Any:
		return "any"
	case All:
		return "all"
	case Majority:
		return "majority"
	default:
		return fmt.Sprintf("Vote(%d)", int(v))
	}
}

// Ensemble combines several detectors into one, implementing the paper's
// Section VII deployment discussion ("when to use SDS and DNN-based
// detection schemes") as a first-class detector: members run side by side
// on the same sample stream and their latest alarm states are combined by
// the vote rule. Decisions are emitted whenever any member decides.
type Ensemble struct {
	members []Detector
	vote    Vote
	state   []bool
	decided []bool
	out     decisionBuf
}

// NewEnsemble combines the members under the vote rule.
func NewEnsemble(vote Vote, members ...Detector) (*Ensemble, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("core: ensemble needs at least 2 members, got %d", len(members))
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("core: ensemble member %d is nil", i)
		}
	}
	if vote != Any && vote != All && vote != Majority {
		return nil, fmt.Errorf("core: unknown vote rule %v", vote)
	}
	return &Ensemble{
		members: members,
		vote:    vote,
		state:   make([]bool, len(members)),
		decided: make([]bool, len(members)),
	}, nil
}

// Name lists the members.
func (e *Ensemble) Name() string {
	name := "Ensemble(" + e.vote.String()
	for _, m := range e.members {
		name += "," + m.Name()
	}
	return name + ")"
}

// Overhead sums the members' costs (they all run).
func (e *Ensemble) Overhead() float64 {
	var sum float64
	for _, m := range e.members {
		sum += m.Overhead()
	}
	return sum
}

// Push feeds the sample to every member and combines their latest states.
// No decision is emitted until every member has decided at least once
// (members have different warm-up lengths).
//
//memdos:hotpath
func (e *Ensemble) Push(s pcm.Sample) []Decision {
	produced := false
	for i, m := range e.members {
		if ds := m.Push(s); len(ds) > 0 {
			e.state[i] = ds[len(ds)-1].Alarm
			e.decided[i] = true
			produced = true
		}
	}
	if !produced {
		return nil
	}
	for _, ok := range e.decided {
		if !ok {
			return nil
		}
	}
	alarms := 0
	for _, a := range e.state {
		if a {
			alarms++
		}
	}
	var alarm bool
	switch e.vote {
	case Any:
		alarm = alarms > 0
	case All:
		alarm = alarms == len(e.members)
	case Majority:
		alarm = 2*alarms > len(e.members)
	}
	return e.out.emit(s.Time, alarm)
}
