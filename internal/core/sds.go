package core

import (
	"memdos/internal/pcm"
)

// SDS is the combined scheme the paper implements as its prototype
// (Section IV-C): SDS/B alone for non-periodic applications; for periodic
// applications SDS/B and SDS/P run together and the alarm requires both to
// agree, which eliminates false positives either scheme raises alone (the
// paper reports a 3-6% specificity improvement over the individual
// schemes).
type SDS struct {
	b *SDSB
	p *SDSP // nil for non-periodic applications

	bAlarm, pAlarm bool
	out            decisionBuf
}

// NewSDS builds the combined detector from an application profile: SDS/P is
// engaged only when the profile is periodic.
func NewSDS(profile Profile, params Params) (*SDS, error) {
	b, err := NewSDSB(profile, params)
	if err != nil {
		return nil, err
	}
	s := &SDS{b: b}
	if profile.Periodic {
		p, err := NewSDSP(profile, params)
		if err != nil {
			return nil, err
		}
		s.p = p
	}
	return s, nil
}

// Name returns "SDS".
func (d *SDS) Name() string { return "SDS" }

// Overhead returns the modelled CPU cost: SDS/B's, plus SDS/P's when it is
// engaged (the paper's Fig. 14 shows SDS costing 1-2%).
func (d *SDS) Overhead() float64 {
	if d.p != nil {
		// The two share the MA pipeline; the combined cost is below the
		// sum of the parts.
		return 0.018
	}
	return d.b.Overhead()
}

// Periodic reports whether SDS/P is engaged.
func (d *SDS) Periodic() bool { return d.p != nil }

// Push feeds one PCM sample to both sub-schemes. Decisions follow SDS/B's
// cadence (every DW samples); for periodic applications a decision's alarm
// state is the conjunction of SDS/B's and SDS/P's current states.
//
//memdos:hotpath
func (d *SDS) Push(s pcm.Sample) []Decision {
	bd := d.b.Push(s)
	if len(bd) > 0 {
		d.bAlarm = bd[len(bd)-1].Alarm
	}
	if d.p != nil {
		if pd := d.p.Push(s); len(pd) > 0 {
			d.pAlarm = pd[len(pd)-1].Alarm
		}
	}
	if len(bd) == 0 {
		return nil
	}
	alarm := d.bAlarm
	if d.p != nil {
		alarm = d.bAlarm && d.pAlarm
	}
	return d.out.emit(s.Time, alarm)
}
