package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sync"
	"time"

	"memdos/internal/core"
	"memdos/internal/experiments"
	"memdos/internal/mem"
	"memdos/internal/pcm"
	"memdos/internal/workload"
)

// sim-grid: the simulator studies, with no serving layer. The grid is
// experiments.Run over 10 apps x {buslock, cleansing, membw} x {SDS,
// KStest} (membw on a 2-socket NUMA server with the attacker on socket
// 1), fanned out through experiments.MapCells at the default
// parallelism, plus the experiments.ClosedLoop buslock and cleansing
// studies. Passes repeat until --seconds have elapsed; one more pass at
// parallelism 1 must reproduce the results byte for byte, and the digest
// must equal the reference kept in simgrid_ref.json for the seed.

const simGridName = "sim-grid"

// simSetupRepeats is how many times the (short) sim-grid set-up runs;
// setup_s is the median.
const simSetupRepeats = 5

// closedLoopApp is the application of the closed-loop arms (memdos
// mitigate's default).
const closedLoopApp = "KM"

//go:embed simgrid_ref.json
var simGridRefJSON []byte

// simCell is one grid cell.
type simCell struct {
	App  string
	Mode experiments.AttackMode
	Det  string // "SDS" or "KStest"
}

func simGrid() []simCell {
	var cells []simCell
	for _, app := range workload.Abbrevs() {
		for _, m := range []experiments.AttackMode{experiments.BusLock, experiments.Cleansing, experiments.MemBW} {
			for _, det := range []string{"SDS", "KStest"} {
				cells = append(cells, simCell{app, m, det})
			}
		}
	}
	return cells
}

// probe times one cell's detector from outside: every Push (the
// simulator hands each victim sample to the detector as soon as the step
// produces it).
type probe struct {
	pushNs, pushes int64
	// verdictMs holds the Push time of every Push that returned a
	// verdict the metrics use: an alarm decision (SDS cells) or any
	// decision, i.e. a finished KS test round (KStest cells).
	verdictMs  []float64
	anyVerdict bool
}

type probeDet struct {
	inner core.Detector
	p     *probe
}

func (d *probeDet) Name() string      { return d.inner.Name() }
func (d *probeDet) Overhead() float64 { return d.inner.Overhead() }

func (d *probeDet) Push(s pcm.Sample) []core.Decision {
	t0 := nowNs()
	out := d.inner.Push(s)
	dt := nowNs() - t0
	d.p.pushNs += dt
	d.p.pushes++
	for _, dec := range out {
		if dec.Alarm || d.p.anyVerdict {
			d.p.verdictMs = append(d.p.verdictMs, float64(dt)/1e6)
			break
		}
	}
	return out
}

// factory wraps the cell's detector, built by the standard factory, with
// its probe.
func (c simCell) factory(p *probe) experiments.DetectorFactory {
	f := experiments.SDSFactory
	if c.Det == "KStest" {
		f, p.anyVerdict = experiments.KSFactory, true
	}
	return func(env *experiments.Env) (core.Detector, error) {
		d, err := f(env)
		if err != nil {
			return nil, err
		}
		return &probeDet{inner: d, p: p}, nil
	}
}

func (c simCell) spec(seed uint64) experiments.RunSpec {
	spec := experiments.DefaultRunSpec(c.App, c.Mode, seed)
	if c.Mode == experiments.MemBW {
		numa := mem.DefaultNUMAConfig(2)
		spec.Mem = &numa
		spec.AttackerSocket = 1
	}
	return spec
}

// cellOut is one cell's result and timing. The result itself is
// dropped once the pass digest is taken, so passes keep little memory.
type cellOut struct {
	cell      simCell
	res       *experiments.RunResult
	probe     *probe
	wallNs    int64
	decisions int
}

// gridPass is one pass over the grid and the closed-loop arms.
type gridPass struct {
	cells        []cellOut
	loops        []*experiments.ClosedLoopResult
	loopMs       []float64
	wallNs       int64
	simSeconds   float64
	victimSample int64
	digest       string
}

func runGridPass(seed uint64) (*gridPass, error) {
	cells := simGrid()
	params := core.DefaultParams()
	gp := &gridPass{}
	t0 := nowNs()
	outs, err := experiments.MapCells(experiments.DefaultRunner(), len(cells), func(i int) (cellOut, error) {
		c := cells[i]
		p := &probe{}
		start := nowNs()
		res, err := experiments.Run(c.spec(seed), params, map[string]experiments.DetectorFactory{c.Det: c.factory(p)})
		if err != nil {
			return cellOut{}, fmt.Errorf("cell %s/%s/%s: %w", c.App, modeName(c.Mode), c.Det, err)
		}
		return cellOut{cell: c, res: res, probe: p, wallNs: nowNs() - start}, nil
	})
	if err != nil {
		return nil, err
	}
	gp.cells = outs
	for _, mode := range []experiments.AttackMode{experiments.BusLock, experiments.Cleansing} {
		start := nowNs()
		r, err := experiments.ClosedLoop(experiments.DefaultClosedLoopSpec(closedLoopApp, mode, seed))
		if err != nil {
			return nil, fmt.Errorf("closed loop %s: %w", modeName(mode), err)
		}
		gp.loopMs = append(gp.loopMs, float64(nowNs()-start)/1e6)
		gp.loops = append(gp.loops, r)
		gp.simSeconds += r.CleanTime + r.AttackedTime + r.MitigatedTime
	}
	gp.wallNs = nowNs() - t0
	for _, o := range outs {
		gp.simSeconds += o.cell.spec(seed).Duration
		gp.victimSample += int64(o.res.Access.Len())
	}
	gp.digest = gridDigest(gp)
	for i := range gp.cells {
		gp.cells[i].decisions = len(gp.cells[i].res.Decisions[gp.cells[i].cell.Det])
		gp.cells[i].res = nil
	}
	gp.loops = nil
	return gp, nil
}

// gridDigest hashes every cell's decisions and victim PCM series and
// every closed-loop result, in grid order.
func gridDigest(gp *gridPass) string {
	h := sha256.New()
	put := func(h hash.Hash, v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, o := range gp.cells {
		fmt.Fprintf(h, "%s/%d/%s;", o.cell.App, o.cell.Mode, o.cell.Det)
		for _, d := range o.res.Decisions[o.cell.Det] {
			put(h, d.Time)
			if d.Alarm {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		for _, v := range o.res.Access.Values {
			put(h, v)
		}
		for _, v := range o.res.Miss.Values {
			put(h, v)
		}
		put(h, o.res.VictimDoneAt)
	}
	for _, r := range gp.loops {
		fmt.Fprintf(h, "%#v;", *r)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// simRefDigest returns the reference digest kept for seed. The
// references were computed on amd64, where Go never fuses floating-point
// multiply-adds; other architectures may round differently and are
// checked for run-to-run and parallelism-1 equality only.
func simRefDigest(seed uint64) (string, bool, error) {
	if runtime.GOARCH != "amd64" {
		return "", false, nil
	}
	var ref map[string]string
	if err := json.Unmarshal(simGridRefJSON, &ref); err != nil {
		return "", false, fmt.Errorf("simgrid_ref.json: %w", err)
	}
	d, ok := ref[fmt.Sprint(seed)]
	return d, ok, nil
}

// simSetup profiles every app for the simulator's profile duration (what
// each cell's run consults) and returns the wall time; the first call
// also fills experiments.Run's own profile cache.
var warmOnce sync.Once

func simSetup(params core.Params) (profileMs []float64, err error) {
	apps := workload.Abbrevs()
	ms, err := experiments.MapCells(experiments.DefaultRunner(), len(apps), func(i int) (float64, error) {
		t0 := nowNs()
		_, err := experiments.ProfileApp(apps[i], experiments.ProfileDuration, params)
		return float64(nowNs()-t0) / 1e6, err
	})
	if err != nil {
		return nil, err
	}
	warmOnce.Do(func() {
		_, err = experiments.MapCells(experiments.DefaultRunner(), len(apps), func(i int) (struct{}, error) {
			spec := experiments.DefaultRunSpec(apps[i], experiments.NoAttack, 1)
			spec.Duration = 1
			_, err := experiments.Run(spec, params, nil)
			return struct{}{}, err
		})
	})
	return ms, err
}

func runSimGrid(seed uint64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	params := core.DefaultParams()
	var setups, profileMs []float64
	for i := 0; i < simSetupRepeats; i++ {
		t0 := nowNs()
		ms, err := simSetup(params)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(nowNs()-t0)/1e9)
		profileMs = append(profileMs, ms...)
	}
	fmt.Printf("%s: %d cells + 2 closed-loop studies per pass at parallelism %d; setup %.3f s (median of %v)\n",
		simGridName, len(simGrid()), experiments.Parallelism(), median(setups), setups)

	runtime.GC()
	before := readProc()
	var (
		passes  []*gridPass
		heapMax uint64
		monStop = make(chan struct{})
		monDone = make(chan struct{})
	)
	go func() {
		defer close(monDone)
		t := time.NewTicker(monitorEvery)
		defer t.Stop()
		for {
			select {
			case <-monStop:
				return
			case <-t.C:
				heapMax = max(heapMax, liveHeap())
			}
		}
	}()
	start := nowNs()
	for len(passes) == 0 || float64(nowNs()-start) < seconds*1e9 {
		gp, err := runGridPass(seed)
		if err != nil {
			close(monStop)
			<-monDone
			return nil, err
		}
		passes = append(passes, gp)
	}
	wall := nowNs() - start
	after := readProc()
	close(monStop)
	<-monDone

	var (
		alarm, action          dist
		alarmAt, actionAt      []float64 // pass index of each sample
		speed, sps             []float64 // per pass
		simSec                 float64
		samples                int64
		cellMs                 = make(map[string][]float64)
		stepNs, loopMs         []float64
		sdsNs, sdsN, ksNs, ksN int64
		decisions              int
	)
	for pi, gp := range passes {
		simSec += gp.simSeconds
		samples += gp.victimSample
		speed = append(speed, gp.simSeconds/(float64(gp.wallNs)/1e9))
		sps = append(sps, float64(gp.victimSample)/(float64(gp.wallNs)/1e9))
		loopMs = append(loopMs, gp.loopMs...)
		for _, o := range gp.cells {
			for _, v := range o.probe.verdictMs {
				if o.cell.Det == "SDS" {
					alarm.add(v)
					alarmAt = append(alarmAt, float64(pi))
				} else {
					action.add(v)
					actionAt = append(actionAt, float64(pi))
				}
			}
			decisions += o.decisions
			cellMs[modeName(o.cell.Mode)] = append(cellMs[modeName(o.cell.Mode)], float64(o.wallNs)/1e6)
			self := selfTime(0, o.wallNs, [][2]int64{{0, o.probe.pushNs}})
			stepNs = append(stepNs, float64(self)/float64(o.probe.pushes))
			if o.cell.Det == "SDS" {
				sdsNs, sdsN = sdsNs+o.probe.pushNs, sdsN+o.probe.pushes
			} else {
				ksNs, ksN = ksNs+o.probe.pushNs, ksN+o.probe.pushes
			}
		}
	}
	e2e := map[string]float64{
		"setup_s":            median(setups),
		"alarm_p50_ms":       alarm.q(50),
		"alarm_p99_ms":       slicedQuantile(alarmAt, alarm.vals, float64(len(passes)), len(passes), 99),
		"action_p50_ms":      action.q(50),
		"action_p99_ms":      slicedQuantile(actionAt, action.vals, float64(len(passes)), len(passes), 99),
		"cpu_us_per_sample":  float64(after.cpuNs-before.cpuNs) / 1e3 / float64(samples),
		"alloc_b_per_sample": float64(after.allocB-before.allocB) / float64(samples),
		"heap_peak_mb":       float64(heapMax) / (1 << 20),
		"max_sps":            median(sps),
		"sim_x_realtime":     median(speed),
	}
	fmt.Printf("  per-pass simulated s per wall s: %.0f\n", speed)
	qa, va := alarm.tail()
	qc, vc := action.tail()
	fmt.Printf("  %d passes in %.2f s: %.0f simulated s, %d victim samples; SDS alarm decisions %d (tail p%g %.4f ms), KS test rounds %d (tail p%g %.4f ms)\n",
		len(passes), float64(wall)/1e9, simSec, samples, alarm.n(), qa, va, action.n(), qc, vc)

	// Correctness: every pass reproduces the first, a pass at
	// parallelism 1 reproduces it too, and the digest equals the
	// reference kept for the seed.
	res.attempted = len(passes) + 2
	for i, gp := range passes {
		if gp.digest != passes[0].digest {
			res.failed++
			res.fail(fmt.Sprintf("pass %d digest %s differs from pass 0 %s", i, gp.digest, passes[0].digest))
		}
	}
	prev := experiments.SetParallelism(1)
	serial, err := runGridPass(seed)
	experiments.SetParallelism(prev)
	if err != nil {
		return nil, err
	}
	if serial.digest != passes[0].digest {
		res.failed++
		res.fail(fmt.Sprintf("parallelism 1 digest %s differs from parallelism %d digest %s", serial.digest, experiments.Parallelism(), passes[0].digest))
	}
	ref, ok, err := simRefDigest(seed)
	switch {
	case err != nil:
		return nil, err
	case !ok:
		res.attempted--
		fmt.Printf("  no reference digest kept for seed %d (checked: run-to-run and parallelism 1)\n", seed)
	case ref != passes[0].digest:
		res.failed++
		res.fail(fmt.Sprintf("result digest %s differs from the reference %s for seed %d", passes[0].digest, ref, seed))
	}
	fmt.Printf("  result digest %s (reference %s)\n", passes[0].digest, ref)

	for _, name := range e2eNames {
		res.metric(name, e2e[name])
	}
	if !traced {
		return res, nil
	}
	for _, name := range ungatedNames {
		res.metric(name, e2e[name])
	}
	// The probes that give the end-to-end figures are the per-layer
	// boundaries too, so the traced run adds only span assembly.
	res.zeroLayers()
	res.overheads(e2e, e2e)
	// One span per cell with its detector time as a child; Push calls
	// are summed, not kept one by one (60,000 per cell), so the child is
	// laid out from the cell start.
	var spans []span
	for _, o := range passes[0].cells {
		name := fmt.Sprintf("%s/%s/%s", o.cell.App, modeName(o.cell.Mode), o.cell.Det)
		spans = append(spans,
			span{Name: "experiments.cell", Start: 0, End: o.wallNs, Parent: -1, Session: name},
			span{Name: "core.push", Start: 0, End: o.probe.pushNs, Parent: len(spans), Session: name})
	}
	fmt.Println(blindSpots)
	writeSpans(simGridName, seed, spans)
	for _, mode := range []string{"buslock", "cleansing", "membw"} {
		res.layer("experiments.cell_ms."+mode, median(cellMs[mode]))
	}
	res.layer("experiments.closedloop_ms", median(loopMs))
	res.layer("experiments.profile_ms", median(profileMs))
	res.layer("vmm.step_ns", median(stepNs))
	res.layer("vmm.steps", float64(passes[0].victimSample))
	res.layer("core.sds_push_ns", max(float64(sdsNs)/float64(sdsN)-clockNs, 0))
	res.layer("core.kstest_push_ns", max(float64(ksNs)/float64(ksN)-clockNs, 0))
	res.layer("core.decisions", float64(decisions))
	res.runtimeLayers(before, after)
	return res, nil
}
