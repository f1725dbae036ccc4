package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// The traced run: spans kept in memory at each layer boundary the
// benchmark can see from outside, written out at the end, and reduced to
// per-layer self times and counts.

// overheadOf lists the end-to-end metrics a traced run re-measures, so
// the tracing overhead on each can be stated.
var overheadOf = []string{
	"alarm_p50_ms", "alarm_p99_ms", "action_p50_ms", "action_p99_ms",
	"cpu_us_per_sample", "alloc_b_per_sample", "heap_peak_mb",
}

// perLayerUnits names every per-layer metric and its unit.
var perLayerUnits = map[string]string{
	"pcm.encode_ns_per_sample":      "ns",
	"gen.late_ms_p99":               "ms",
	"stream.ingest_to_push_ms_p50":  "ms",
	"stream.ingest_to_push_ms_p99":  "ms",
	"stream.backlog_max":            "samples",
	"stream.samples_dropped":        "count",
	"stream.subscriber_dropped":     "count",
	"stream.alarm_transitions":      "count",
	"stream.fanout_us_p50":          "us",
	"stream.fanout_us_p99":          "us",
	"drop_frac":                     "ratio",
	"core.push_ns_per_sample":       "ns",
	"core.push_busy_frac":           "ratio",
	"core.decisions":                "count",
	"core.replay_ns_per_sample":     "ns",
	"respond.observe_to_act_us_p50": "us",
	"respond.observe_to_act_us_p99": "us",
	"respond.actions":               "count",
	"respond.escalations":           "count",
	"respond.actuator_errors":       "count",
	"dnn.score_us_per_window":       "us",
	"dnn.batch_fill":                "ratio",
	"dnn.calls":                     "count",
	"dnn.windows_scored":            "count",
	"dnn.windows_shed":              "count",
	"dnn.queue_depth_max":           "count",
	"dnn.busy_frac":                 "ratio",
	"shed_frac":                     "ratio",
	"runtime.gc_cycles":             "count",
	"runtime.gc_pause_ms":           "ms",
	"runtime.alloc_bytes":           "B",
	"experiments.cell_ms.buslock":   "ms",
	"experiments.cell_ms.cleansing": "ms",
	"experiments.cell_ms.membw":     "ms",
	"experiments.closedloop_ms":     "ms",
	"experiments.profile_ms":        "ms",
	"vmm.step_ns":                   "ns",
	"vmm.steps":                     "count",
	"core.sds_push_ns":              "ns",
	"core.kstest_push_ns":           "ns",
	"trace.alarm_path_ratio":        "ratio",
}

// perLayerNames is every metric --trace 1 reports, in report order.
var perLayerNames = func() []string {
	names := append(sortedKeys(perLayerUnits), ungatedNames...)
	for _, m := range overheadOf {
		names = append(names, "overhead."+m)
	}
	return names
}()

// layer sets a per-layer metric (every per-layer name must be set by
// every workload; layers a workload leaves idle read zero).
func (r *result) layer(name string, v float64) {
	u, ok := perLayerUnits[name]
	if !ok {
		panic("memdosbench: unknown per-layer metric " + name)
	}
	r.metricUnit(name, u, v)
}

// zeroLayers sets every per-layer metric to zero, for the workload to
// overwrite the ones its layers measure.
func (r *result) zeroLayers() {
	for name := range perLayerUnits {
		r.layer(name, 0)
	}
}

// overheads records the tracing overhead on each re-measured end-to-end
// metric: traced value over untraced value, minus one.
func (r *result) overheads(untraced, traced map[string]float64) {
	for _, m := range overheadOf {
		v := 0.0
		if untraced[m] != 0 {
			v = traced[m]/untraced[m] - 1
		}
		r.metricUnit("overhead."+m, "ratio", v)
		fmt.Printf("  overhead %-20s untraced %12.6g traced %12.6g (%+.1f%%)\n", m, untraced[m], traced[m], 100*v)
	}
}

// maxSpans caps the spans written out per run.
const maxSpans = 200_000

// writeSpans writes spans as JSON lines under .bench_build/spans/.
func writeSpans(workload string, seed uint64, spans []span) {
	if len(spans) > maxSpans {
		spans = spans[:maxSpans]
	}
	dir := filepath.Join(".bench_build", "spans")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	err := os.MkdirAll(dir, 0o755)
	var f *os.File
	if err == nil {
		f, err = os.Create(path)
	}
	if err == nil {
		bw := bufio.NewWriter(f)
		enc := json.NewEncoder(bw)
		for i := range spans {
			if err = enc.Encode(&spans[i]); err != nil {
				break
			}
		}
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "memdosbench: writing spans:", err)
		return
	}
	fmt.Printf("  %d spans written to %s\n", len(spans), path)
}

// blindSpots states what the outside-in trace cannot separate.
const blindSpots = `  blind spots: stream.ingest_to_push is one span covering loopback, the HTTP body,
  pcm decode, Hub.Ingest and the shard queue wait; vmm.step_ns covers cache, bus,
  mem, workload, attack and pcm sampling inside vmm.Step. Splitting them needs
  spans inside the program.`

// perLayer reduces a traced serving phase to the per-layer metrics and
// the alarm-path consistency check.
func (w *servingWorkload) perLayer(res *result, seed uint64, st *stack, ph *phase, plan *fleetPlan, byID map[string]*sessionPlan, untraced map[string]float64, replayNs float64) {
	res.zeroLayers()
	l := phaseLatencies(ph, byID)
	res.overheads(untraced, e2eOf(ph, l))

	live := make(map[string][]alarmRec)
	for _, r := range ph.alarms {
		live[r.Session] = append(live[r.Session], r)
	}
	var (
		ingest, fanout, detect, total, pathIngest dist
		path                                      []alarmPath
		spans                                     []span
		pushNs, pushCalls                         int64
		publish                                   = make(map[string][]float64)
		calls                                     = make(map[string][]int64)
		mismatched                                int
	)
	for _, c := range ph.calls {
		calls[c.Session] = append(calls[c.Session], c.At)
	}
	for _, s := range plan.Sessions {
		rec := st.recs[s.ID]
		pushNs += rec.pushNs
		pushCalls += rec.pushCalls
		for f, at := range rec.firstPush {
			due := float64(ph.startNs) + ph.sc.frameDue(s, f*plan.Frame)
			ingest.add((float64(at) - due) / 1e6)
		}
		evs := live[s.ID]
		if len(evs) != len(rec.flips) {
			mismatched++
			continue
		}
		for i, fl := range rec.flips {
			ev := evs[i]
			if ev.T != fl.T {
				mismatched++
				continue
			}
			due := int64(float64(ph.startNs) + ph.sc.eventDue(s, ev.T))
			root := span{Name: "alarm", Start: due, End: ev.At, Parent: -1, Session: s.ID, SampleTime: ev.T}
			kids := []span{
				{Name: "stream.ingest_to_push", Start: due, End: fl.FrameStart},
				{Name: "core.detect", Start: fl.FrameStart, End: fl.PushEnd},
				{Name: "stream.fanout", Start: fl.PushEnd, End: ev.At},
			}
			parent := len(spans)
			spans = append(spans, root)
			iv := make([][2]int64, len(kids))
			for k, c := range kids {
				c.Parent, c.Session, c.SampleTime = parent, s.ID, ev.T
				spans = append(spans, c)
				iv[k] = [2]int64{c.Start, c.End}
			}
			if self := selfTime(root.Start, root.End, iv); self != 0 {
				mismatched++ // the three stages must tile the alarm span
			}
			pathIngest.add(float64(fl.FrameStart-due) / 1e6)
			detect.add(float64(fl.PushEnd-fl.FrameStart) / 1e6)
			fanout.add(float64(ev.At-fl.PushEnd) / 1e3)
			total.add(float64(ev.At-due) / 1e6)
			path = append(path, alarmPath{
				total:  float64(ev.At - due),
				stages: [3]float64{float64(fl.FrameStart - due), float64(fl.PushEnd - fl.FrameStart), float64(ev.At - fl.PushEnd)},
			})
			if ev.Raised {
				publish[s.ID] = append(publish[s.ID], float64(fl.PushEnd))
			}
		}
	}
	act, _, _ := actionLatency(publish, calls)
	var observe dist
	for _, v := range act {
		observe.add(v * 1e3) // ms -> us
	}
	stages := medianBand(path)
	sum := (stages[0] + stages[1] + stages[2]) / 1e6
	ratio := sum / total.q(50)
	fmt.Printf("  alarm path of the median alarms (45th-55th percentile): ingest_to_push %.3f ms + detect %.3f ms + fanout %.3f ms = %.3f ms vs alarm p50 %.3f ms (ratio %.3f, %d spans unmatched)\n",
		stages[0]/1e6, stages[1]/1e6, stages[2]/1e6, sum, total.q(50), ratio, mismatched)
	fmt.Printf("  stage medians taken separately: %.3f + %.3f + %.3f ms = %.3f ms (medians of skewed stages do not add)\n",
		pathIngest.q(50), detect.q(50), fanout.q(50)/1e3, pathIngest.q(50)+detect.q(50)+fanout.q(50)/1e3)
	if ratio < 0.9 || ratio > 1.1 {
		res.failed++
		res.fail(fmt.Sprintf("trace: alarm-path self times sum to %.3f of alarm p50", ratio))
	}
	if mismatched > 0 {
		res.failed++
		res.fail(fmt.Sprintf("trace: %d alarm spans did not join the detector's flips", mismatched))
	}
	res.attempted++
	fmt.Println(blindSpots)
	writeSpans(w.cfg.Name, seed, spans)

	var encNs, encSamples int64
	for _, p := range ph.prods {
		encNs += p.encodeNs
		encSamples += p.encodeSamples
	}
	acc := float64(ph.hub.SamplesIngested)
	pushPer := max(float64(pushNs)/float64(max(pushCalls, 1))-clockNs, 0)
	res.layer("pcm.encode_ns_per_sample", float64(encNs)/float64(max(encSamples, 1)))
	res.layer("gen.late_ms_p99", lateness(ph).q(99))
	res.layer("stream.ingest_to_push_ms_p50", ingest.q(50))
	res.layer("stream.ingest_to_push_ms_p99", ingest.q(99))
	res.layer("stream.backlog_max", float64(maxDepth(ph.depths)))
	res.layer("stream.samples_dropped", float64(ph.hub.SamplesDropped))
	res.layer("stream.subscriber_dropped", float64(ph.hub.SubscriberDropped))
	res.layer("stream.alarm_transitions", float64(len(ph.alarms)))
	res.layer("stream.fanout_us_p50", fanout.q(50))
	res.layer("stream.fanout_us_p99", fanout.q(99))
	res.layer("drop_frac", float64(ph.dropped+ph.hub.SamplesDropped)/float64(ph.sent))
	res.layer("core.push_ns_per_sample", pushPer)
	res.layer("core.push_busy_frac", pushPer*acc/(float64(ph.wallNs)*float64(runtime.GOMAXPROCS(0))))
	res.layer("core.decisions", float64(ph.hub.Decisions))
	res.layer("core.replay_ns_per_sample", replayNs)
	res.layer("respond.observe_to_act_us_p50", observe.q(50))
	res.layer("respond.observe_to_act_us_p99", observe.q(99))
	res.layer("respond.actions", float64(len(ph.calls)))
	res.layer("respond.escalations", float64(ph.eng.Escalations))
	res.layer("respond.actuator_errors", float64(ph.eng.ActuatorErrors))
	if sc := st.scorer; sc != nil {
		res.layer("dnn.score_us_per_window", float64(sc.ns)/1e3/float64(max(sc.windows, 1)))
		res.layer("dnn.batch_fill", float64(sc.windows)/float64(max(sc.calls, 1))/float64(ph.scorer.Batch))
		res.layer("dnn.calls", float64(sc.calls))
		res.layer("dnn.windows_scored", float64(ph.scorer.WindowsScored))
		res.layer("dnn.windows_shed", float64(ph.scorer.WindowsDropped))
		res.layer("dnn.queue_depth_max", float64(ph.dnnDepth))
		res.layer("dnn.busy_frac", float64(sc.ns)/float64(ph.wallNs))
		res.layer("shed_frac", float64(ph.scorer.WindowsDropped)/float64(max(ph.scorer.WindowsScored+ph.scorer.WindowsDropped, 1)))
	}
	res.runtimeLayers(ph.before, ph.after)
	for mode, ms := range w.cellMs {
		if mode != "none" {
			res.layer("experiments.cell_ms."+mode, median(ms))
		}
	}
	res.layer("experiments.profile_ms", median(w.profileMs))
	res.layer("vmm.step_ns", median(w.stepNs))
	res.layer("vmm.steps", float64(w.steps))
	res.layer("trace.alarm_path_ratio", ratio)
}

func (r *result) runtimeLayers(before, after procCounters) {
	r.layer("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles))
	r.layer("runtime.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
	r.layer("runtime.alloc_bytes", float64(after.allocB-before.allocB))
}

// alarmPath is one alarm's end-to-end latency and the self times of its
// three stages (ingest_to_push, detect, fanout), in ns.
type alarmPath struct {
	total  float64
	stages [3]float64
}

// medianBand averages each stage's self time over the alarms whose total
// latency lies between the 45th and 55th percentiles: the decomposition
// of a typical alarm, which sums to about the median latency because the
// stages tile each alarm's span.
func medianBand(paths []alarmPath) [3]float64 {
	var out [3]float64
	if len(paths) == 0 {
		return out
	}
	sorted := append([]alarmPath(nil), paths...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].total < sorted[j].total })
	lo, hi := len(sorted)*45/100, max(len(sorted)*55/100, len(sorted)*45/100+1)
	for _, p := range sorted[lo:hi] {
		for k := range out {
			out[k] += p.stages[k]
		}
	}
	for k := range out {
		out[k] /= float64(hi - lo)
	}
	return out
}

func maxDepth(ds []int64) int64 {
	m := int64(0)
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}
