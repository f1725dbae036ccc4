package core

import (
	"fmt"

	"memdos/internal/dnn"
	"memdos/internal/pcm"
)

// DNNDetector wraps a trained LSTM-FCN cascade (Section V) as a real-time
// detector: the raw two-channel sample stream is windowed exactly like
// SDS's input (window W, stride DW), each window is classified by the
// cascade, and H_D consecutive attack classifications raise the alarm.
//
// Unlike SDS, the detector needs no per-application profile: the cascade's
// first stage identifies the application and conditions the attack
// classifier.
type DNNDetector struct {
	cascade *dnn.Cascade
	params  Params

	// win is the latest (up to W) samples as [access, miss] rows, a view
	// into rows. rows is a fixed 2W set of rows over the one backing
	// array flat; when win reaches the end of rows its values are copied
	// to the front, so Push never allocates.
	win       [][]float64
	rows      [][]float64
	flat      []float64
	sinceEval int
	viol      violationCounter

	lastApp    int
	lastAttack int
	out        decisionBuf
}

// NewDNNDetector returns a detector around a trained cascade.
func NewDNNDetector(cascade *dnn.Cascade, p Params) (*DNNDetector, error) {
	if cascade == nil {
		return nil, fmt.Errorf("core: nil cascade")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &DNNDetector{
		cascade:    cascade,
		params:     p,
		rows:       make([][]float64, 2*p.W),
		flat:       make([]float64, 4*p.W),
		viol:       violationCounter{threshold: p.HD},
		lastApp:    -1,
		lastAttack: dnn.ClassNoAttack,
	}
	for i := range d.rows {
		d.rows[i] = d.flat[2*i : 2*i+2 : 2*i+2]
	}
	d.win = d.rows[:0]
	return d, nil
}

// Name returns "DNN".
func (d *DNNDetector) Name() string { return "DNN" }

// Overhead returns the modelled CPU cost of per-window inference (Fig. 14:
// DNN costs 2-5%, above SDS's simple arithmetic).
func (d *DNNDetector) Overhead() float64 { return 0.035 }

// Push feeds one PCM sample; a decision is produced every DW samples once
// a full window is available.
//
//memdos:hotpath
func (d *DNNDetector) Push(s pcm.Sample) []Decision {
	n := len(d.win)
	if n == d.params.W {
		d.win, n = d.win[1:], n-1
	}
	if n == cap(d.win) {
		// win ends at the end of rows: move its values to the front.
		copy(d.flat, d.flat[2*(len(d.rows)-n):])
		d.win = d.rows[:n]
	}
	d.win = d.win[:n+1]
	d.win[n][0], d.win[n][1] = s.AccessNum, s.MissNum
	d.sinceEval++
	if len(d.win) < d.params.W || d.sinceEval < d.params.DW {
		return nil
	}
	d.sinceEval = 0
	app, attackClass := d.cascade.Classify(d.win)
	d.lastApp, d.lastAttack = app, attackClass
	alarm := d.viol.observe(attackClass != dnn.ClassNoAttack)
	return d.out.emit(s.Time, alarm)
}

// LastClassification returns the most recent (application, attack-class)
// pair, for diagnostics; the application is -1 before the first window.
func (d *DNNDetector) LastClassification() (app, attackClass int) {
	return d.lastApp, d.lastAttack
}
