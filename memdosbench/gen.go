package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"memdos/internal/pcm"
	"memdos/internal/sim"
	"memdos/internal/stream"
)

// The open-loop input generator. Everything a producer sends is a pure
// function of the workload seed: which trace each session replays, where
// in the trace it starts, the canary spike phases, and the order frames
// leave each producer. Only the send instants depend on the clock.

// tPCM is the PCM sampling period (seconds); sample j of a session is
// stamped (offset+j+1)*tPCM, so timestamps stay monotonic when a session
// wraps around its trace.
const tPCM = 0.01

// Canary sessions run the profile-free raw detector on a flat counter
// with a doubling spike every Period samples: each spike raises the alarm
// (+100% step) and the next sample clears it (-50%, not beyond the
// threshold), so a canary yields two alarm transitions per period.
const (
	canaryAccess = 1024
	canaryMiss   = 64
)

// pcmTrace is one victim's counter series (values only; the generator
// re-stamps times).
type pcmTrace struct {
	App          string
	Access, Miss []float64
}

// sessionPlan is one generated session: what it replays and from where.
type sessionPlan struct {
	ID      string
	Profile string
	Trace   *pcmTrace // nil for a canary
	Offset  int       // first trace index replayed
	Period  int       // canary spike period in samples
	Phase   int       // canary spike phase (taken modulo Period)
	// Producer and Pos place the session in the send schedule.
	Producer, Pos int
}

func (s *sessionPlan) canary() bool { return s.Trace == nil }

// sample returns the session's j-th sample.
func (s *sessionPlan) sample(j int) pcm.Sample {
	idx := s.Offset + j
	t := float64(idx+1) * tPCM
	if s.canary() {
		acc := float64(canaryAccess)
		if j > 0 && (j+s.Phase)%s.Period == 0 {
			acc *= 2
		}
		return pcm.Sample{Time: t, AccessNum: acc, MissNum: canaryMiss}
	}
	k := idx % len(s.Trace.Access)
	return pcm.Sample{Time: t, AccessNum: s.Trace.Access[k], MissNum: s.Trace.Miss[k]}
}

// index inverts sample: the sample index j that carries timestamp t.
func (s *sessionPlan) index(t float64) int {
	return int(math.Round(t/tPCM)) - s.Offset - 1
}

// samples fills dst with samples [from, from+n).
func (s *sessionPlan) samples(dst []pcm.Sample, from, n int) []pcm.Sample {
	dst = dst[:0]
	for j := from; j < from+n; j++ {
		dst = append(dst, s.sample(j))
	}
	return dst
}

// fleetPlan is a workload's full input: sessions plus send schedule.
type fleetPlan struct {
	Sessions []*sessionPlan
	// Order lists each producer's sessions in send order.
	Order [][]*sessionPlan
	// Frame is the number of samples per frame.
	Frame int
}

// planSpec describes how to draw a fleet from the seed.
type planSpec struct {
	Traces    []*pcmTrace
	Profile   func(*pcmTrace) string
	Sessions  int
	Canaries  int
	Period    int // canary spike period
	Producers int
	Frame     int
}

// makePlan draws the fleet: session i replays a seeded trace from a
// seeded offset; canaries get seeded spike phases; sessions are dealt to
// producers round-robin after a seeded shuffle.
func makePlan(spec planSpec, seed uint64) *fleetPlan {
	rng := sim.NewRNG(seed ^ 0x6d656d646f73)
	p := &fleetPlan{Frame: spec.Frame, Order: make([][]*sessionPlan, spec.Producers)}
	for i := 0; i < spec.Sessions; i++ {
		tr := spec.Traces[rng.Intn(len(spec.Traces))]
		p.Sessions = append(p.Sessions, &sessionPlan{
			ID:      fmt.Sprintf("vm-%04d", i),
			Profile: spec.Profile(tr),
			Trace:   tr,
			Offset:  rng.Intn(len(tr.Access)),
		})
	}
	for i := 0; i < spec.Canaries; i++ {
		p.Sessions = append(p.Sessions, &sessionPlan{
			ID:      fmt.Sprintf("vm-canary-%02d", i),
			Profile: "raw",
			Offset:  rng.Intn(1 << 16),
			Period:  spec.Period,
			Phase:   rng.Intn(1 << 16),
		})
	}
	perm := make([]*sessionPlan, len(p.Sessions))
	copy(perm, p.Sessions)
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, s := range perm {
		s.Producer = i % spec.Producers
		s.Pos = len(p.Order[s.Producer])
		p.Order[s.Producer] = append(p.Order[s.Producer], s)
	}
	return p
}

// withCanaryPeriod returns a copy of the plan whose canaries spike every
// period samples; everything else, including the send order, is
// unchanged.
func (p *fleetPlan) withCanaryPeriod(period int) *fleetPlan {
	q := &fleetPlan{Frame: p.Frame, Order: make([][]*sessionPlan, len(p.Order))}
	copies := make(map[*sessionPlan]*sessionPlan, len(p.Sessions))
	for _, s := range p.Sessions {
		c := *s
		if c.canary() {
			c.Period = period
		}
		copies[s] = &c
		q.Sessions = append(q.Sessions, &c)
	}
	for i, order := range p.Order {
		for _, s := range order {
			q.Order[i] = append(q.Order[i], copies[s])
		}
	}
	return q
}

// canaryPeriod returns the spike period that makes the plan's canaries
// produce at least target alarm transitions per second at the aggregate
// rate (at least 2: a spike and its clear).
func canaryPeriod(rate float64, sessions, canaries int, target float64) int {
	perSession := rate / float64(sessions)
	return max(2, int(2*perSession*float64(canaries)/target))
}

// schedule fixes the due time of every frame for one phase at an
// aggregate rate: every session gets rate/len(Sessions) samples per
// second, and producer p sends frame k at start + k*interval[p].
type schedule struct {
	plan     *fleetPlan
	start    time.Time
	interval []float64 // ns between frames, per producer
}

func newSchedule(plan *fleetPlan, rate float64, start time.Time) *schedule {
	sc := &schedule{plan: plan, start: start}
	n := float64(len(plan.Sessions))
	for _, order := range plan.Order {
		perProducer := rate * float64(len(order)) / n
		sc.interval = append(sc.interval, float64(plan.Frame)/perProducer*1e9)
	}
	return sc
}

// dueNs returns the due time (ns since start) of frame k of producer p.
func (sc *schedule) dueNs(p, k int) float64 { return float64(k) * sc.interval[p] }

// frameDue maps a session's sample index to the due time (ns since
// start) of the frame that carried it.
func (sc *schedule) frameDue(s *sessionPlan, j int) float64 {
	f := j / sc.plan.Frame
	return sc.dueNs(s.Producer, f*len(sc.plan.Order[s.Producer])+s.Pos)
}

// eventDue maps an alarm timestamp of session s to its frame's due time.
func (sc *schedule) eventDue(s *sessionPlan, t float64) float64 {
	return sc.frameDue(s, s.index(t))
}

// frameOf returns the session and first sample index of frame k of
// producer p.
func (sc *schedule) frameOf(p, k int) (*sessionPlan, int) {
	order := sc.plan.Order[p]
	return order[k%len(order)], (k / len(order)) * sc.plan.Frame
}

// streamDigest hashes the exact bytes producers send for the given frame
// counts, in send order: the same seed yields the same digest.
func streamDigest(sc *schedule, frames []int) (string, error) {
	h := sha256.New()
	var buf []byte
	var smp []pcm.Sample
	for p, n := range frames {
		for k := 0; k < n; k++ {
			s, j := sc.frameOf(p, k)
			smp = s.samples(smp, j, sc.plan.Frame)
			var err error
			if buf, err = pcm.AppendBatch(buf[:0], s.ID, smp); err != nil {
				return "", err
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// producer is one open-loop sender: one goroutine, one persistent
// connection carrying a chunked POST /v1/ingest/stream whose body is the
// producer's frames.
type producer struct {
	id   int
	conn net.Conn
	br   *bufio.Reader

	frames int // frames sent
	late   dist
	// encode timing (traced runs): sampled AppendBatch time and samples.
	encodeNs, encodeSamples int64
}

func dialProducer(addr string, id int) (*producer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hdr := "POST /v1/ingest/stream HTTP/1.1\r\nHost: memdos\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\n\r\n"
	if _, err := conn.Write([]byte(hdr)); err != nil {
		conn.Close()
		return nil, err
	}
	return &producer{id: id, conn: conn, br: bufio.NewReader(conn)}, nil
}

// encodeSampleEvery is the traced run's 1-in-N sampling of AppendBatch
// timing.
const encodeSampleEvery = 16

// run sends this producer's frames on schedule until end (ns since the
// schedule start). Frames already due when the producer wakes go out in
// one chunk; lateness is measured per frame from its due time.
func (p *producer) run(sc *schedule, endNs float64, traced bool) error {
	var (
		frame, chunk []byte
		smp          []pcm.Sample
		k            int
	)
	for {
		due := sc.dueNs(p.id, k)
		if due >= endNs {
			break
		}
		now := float64(time.Since(sc.start).Nanoseconds())
		if due > now {
			time.Sleep(time.Duration(due - now))
			continue
		}
		frame = frame[:0]
		first := k
		for ; due <= now && due < endNs; due = sc.dueNs(p.id, k) {
			s, j := sc.frameOf(p.id, k)
			smp = s.samples(smp, j, sc.plan.Frame)
			var err error
			if traced && k%encodeSampleEvery == 0 {
				t0 := time.Now()
				frame, err = pcm.AppendBatch(frame, s.ID, smp)
				p.encodeNs += time.Since(t0).Nanoseconds()
				p.encodeSamples += int64(len(smp))
			} else {
				frame, err = pcm.AppendBatch(frame, s.ID, smp)
			}
			if err != nil {
				return err
			}
			k++
		}
		chunk = strconv.AppendInt(chunk[:0], int64(len(frame)), 16)
		chunk = append(chunk, '\r', '\n')
		chunk = append(chunk, frame...)
		chunk = append(chunk, '\r', '\n')
		sent := float64(time.Since(sc.start).Nanoseconds())
		if _, err := p.conn.Write(chunk); err != nil {
			return err
		}
		for i := first; i < k; i++ {
			p.late.add((sent - sc.dueNs(p.id, i)) / 1e6)
		}
	}
	p.frames = k
	return nil
}

// finish ends the request body and returns the daemon's ingest summary.
func (p *producer) finish() (stream.IngestResponse, error) {
	defer p.conn.Close()
	var out stream.IngestResponse
	if _, err := p.conn.Write([]byte("0\r\n\r\n")); err != nil {
		return out, err
	}
	resp, err := http.ReadResponse(p.br, nil)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("producer %d: decoding response (%s): %w", p.id, resp.Status, err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("producer %d: %s: %v", p.id, resp.Status, out.Errors)
	}
	return out, nil
}
