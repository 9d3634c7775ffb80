package main

import (
	"time"

	"github.com/rtcl/bcp"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/wire"
)

// layerMetric names one per-layer metric of the traced run.
type layerMetric struct{ name, unit, better string }

// layerMetrics is every per-layer metric a traced run of a gated workload
// prints, in report order. A layer a workload leaves idle reports 0.
// BENCHMARK.json lists the same names (checked by TestBenchmarkManifest).
var layerMetrics = []layerMetric{
	{"routing.disjoint_us", "us", "lower"},
	{"routing.shortest_us", "us", "lower"},
	{"core.establish_us.p50", "us", "lower"},
	{"core.teardown_us.p50", "us", "lower"},
	{"core.batch_replanned_frac", "frac", "lower"},
	{"core.trial_us.p50", "us", "lower"},
	{"core.sweep_speedup", "x", "higher"},
	{"core.claims_per_crash", "count", "lower"},
	{"core.releases_per_crash", "count", "lower"},
	{"core.converts_per_crash", "count", "lower"},
	{"transport.frames_per_crash", "count", "lower"},
	{"transport.frame_bytes_per_crash", "bytes", "lower"},
	{"transport.heartbeats", "count", "lower"},
	{"transport.sendframe_us.p50", "us", "lower"},
	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"rcc.frames", "count", "lower"},
	{"rcc.msgs_per_frame", "count", "higher"},
	{"rcc.acks", "count", "lower"},
	{"rcc.retransmits", "count", "lower"},
	{"bcpd.reports_per_crash", "count", "lower"},
	{"bcpd.activations_per_crash", "count", "lower"},
	{"bcpd.activation_waste_frac", "frac", "lower"},
	{"bcpd.handler_us.p50", "us", "lower"},
	{"realtime.mailbox_wait_us.p50", "us", "lower"},
	{"realtime.mailbox_wait_us.p95", "us", "lower"},
	{"realtime.timer_late_us.p50", "us", "lower"},
	{"realtime.timer_late_us.p95", "us", "lower"},
	{"realtime.exec_wait_us.p50", "us", "lower"},
	{"realtime.dropped", "count", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// stormLayerMetrics are the per-layer metrics only the storm workload
// drives: the simulator's executive and the simulated-time recovery
// waterfall. Storm is not a gated workload (README.md, "Dropped workload"),
// so its traced runs print these after layerMetrics and BENCHMARK.json does
// not list them.
var stormLayerMetrics = []layerMetric{
	{"sim.timers_per_crash", "count", "lower"},
	{"sim.batch_schedules_per_crash", "count", "lower"},
	{"sim.callbacks_per_crash", "count", "lower"},
	{"sim.callback_ms_per_crash", "ms", "lower"},
	{"sim.executive_ms_per_crash", "ms", "lower"},
	{"bcpd.detect_ms.p50", "ms", "lower"},
	{"bcpd.detect_ms.p95", "ms", "lower"},
	{"bcpd.report_ms.p50", "ms", "lower"},
	{"bcpd.report_ms.p95", "ms", "lower"},
	{"bcpd.activation_ms.p50", "ms", "lower"},
	{"bcpd.activation_ms.p95", "ms", "lower"},
	{"bcpd.switch_ms.p50", "ms", "lower"},
	{"bcpd.switch_ms.p95", "ms", "lower"},
}

// counters is the traced seams' running tally. Every field is written from
// runtime-serialized protocol context (sim callbacks, or live callbacks
// under the realtime execution lock) and read by the benchmark loop between phases
// (through Exec on a live runtime).
type counters struct {
	timers, batchSchedules, callbacks int
	callbackTime                      time.Duration

	frames, frameBytes, heartbeats int

	kinds [trace.NumKinds]int
	ctrls int // control messages batched into RCC frames
}

// addDelta adds now − pre to c.
func (c *counters) addDelta(now, pre counters) {
	c.timers += now.timers - pre.timers
	c.batchSchedules += now.batchSchedules - pre.batchSchedules
	c.callbacks += now.callbacks - pre.callbacks
	c.callbackTime += now.callbackTime - pre.callbackTime
	c.frames += now.frames - pre.frames
	c.frameBytes += now.frameBytes - pre.frameBytes
	c.heartbeats += now.heartbeats - pre.heartbeats
	for k := range c.kinds {
		c.kinds[k] += now.kinds[k] - pre.kinds[k]
	}
	c.ctrls += now.ctrls - pre.ctrls
}

// tracer is the state shared by the traced runtime, transport, post
// function and trace sink of one protocol network.
type tracer struct {
	c counters

	sendFrame samples
	// live enables the wall-clock samples below (realtime runtime only).
	live                            bool
	timerLate, mailboxWait, handler samples

	// captured holds copies of sent RCC frames for the wire replay.
	captured [][]byte

	// watch selects the channels whose waterfall events are kept in wf.
	watch map[bcp.ChannelID]bool
	wf    []bcp.TraceEvent
}

const maxCaptured = 1 << 15

func newTracer() *tracer { return &tracer{watch: make(map[bcp.ChannelID]bool)} }

// --- Runtime ------------------------------------------------------------

// tracedRuntime wraps a bcp.Runtime, counting timers and batch schedules
// and timing every fired callback. Deadlines and FIFO order are the inner
// runtime's, so a simulated run is event-for-event identical to a bare one.
type tracedRuntime struct {
	bcp.Runtime
	t *tracer
}

func (r *tracedRuntime) wrap(d time.Duration, fn func()) func() {
	due := r.Runtime.Now().Add(d)
	return func() {
		start := time.Now()
		if r.t.live {
			r.t.timerLate = append(r.t.timerLate, r.Runtime.Now().Sub(due))
		}
		fn()
		r.t.c.callbacks++
		r.t.c.callbackTime += time.Since(start)
	}
}

func (r *tracedRuntime) Schedule(d time.Duration, fn func()) bcp.Timer {
	r.t.c.timers++
	return r.Runtime.Schedule(d, r.wrap(d, fn))
}

func (r *tracedRuntime) At(at bcp.Time, fn func()) bcp.Timer {
	r.t.c.timers++
	return r.Runtime.At(at, r.wrap(max(at.Sub(r.Runtime.Now()), 0), fn))
}

func (r *tracedRuntime) ScheduleBatch(d time.Duration, fns []func(), out []bcp.Timer) []bcp.Timer {
	r.t.c.batchSchedules++
	r.t.c.timers += len(fns)
	wrapped := make([]func(), len(fns))
	for i, fn := range fns {
		wrapped[i] = r.wrap(d, fn)
	}
	return r.Runtime.ScheduleBatch(d, wrapped, out)
}

// --- Transport ------------------------------------------------------------

// tracedTransport wraps a bcp.Transport the way ChaosTransport does: the
// embedded transport carries everything, the overrides count, copy and
// time.
type tracedTransport struct {
	bcp.Transport
	t *tracer
}

func (tr *tracedTransport) SendFrame(l bcp.LinkID, frame []byte) {
	tr.t.c.frames++
	tr.t.c.frameBytes += len(frame)
	if len(tr.t.captured) < maxCaptured {
		tr.t.captured = append(tr.t.captured, append([]byte(nil), frame...))
	}
	start := time.Now()
	tr.Transport.SendFrame(l, frame)
	tr.t.sendFrame = append(tr.t.sendFrame, time.Since(start))
}

func (tr *tracedTransport) SendHeartbeat(l bcp.LinkID) {
	tr.t.c.heartbeats++
	tr.Transport.SendHeartbeat(l)
}

// InTransit forwards the inner transport's pool accounting, so the
// protocol's quiescence audit sees through the wrapper. Only transports that
// implement it (the sim transport) are audited.
func (tr *tracedTransport) InTransit() (frames, data int) {
	if it, ok := tr.Transport.(interface{ InTransit() (int, int) }); ok {
		return it.InTransit()
	}
	return 0, 0
}

// --- PostFunc -------------------------------------------------------------

// post wraps a live transport's PostFunc: each posted callback records its
// mailbox wait (post → run, including the execution-lock wait) and the time
// spent inside it. The wrapper runs on the posting goroutine; the samples
// are appended inside the callback, under the execution lock.
func (t *tracer) post(inner bcp.PostFunc) bcp.PostFunc {
	return func(node int, fn func()) bool {
		posted := time.Now()
		return inner(node, func() {
			start := time.Now()
			fn()
			t.mailboxWait = append(t.mailboxWait, start.Sub(posted))
			t.handler = append(t.handler, time.Since(start))
		})
	}
}

// --- TraceSink ------------------------------------------------------------

// Emit counts every event by kind and keeps the waterfall events of watched
// channels.
func (t *tracer) Emit(ev bcp.TraceEvent) {
	t.c.kinds[ev.Kind]++
	switch ev.Kind {
	case trace.KindRCCFrame:
		t.c.ctrls += int(ev.Aux)
	case trace.KindReportOriginate, trace.KindState, trace.KindActivationStart, trace.KindSourceSwitch:
		if t.watch[ev.Channel] {
			t.wf = append(t.wf, ev)
		}
	}
}

// seamLayers reports the counts the traced transport and trace sink take,
// over n failure cycles: claim-path and transport counts per failure from
// failures (the failure phases only), heartbeats and RCC counts from run
// (the whole run), and the SendFrame call times.
func (r *report) seamLayers(failures, run counters, n int, sendFrame samples) {
	per := float64(max(n, 1))
	r.layer("core.claims_per_crash", float64(failures.kinds[trace.KindClaim])/per)
	r.layer("core.releases_per_crash", float64(failures.kinds[trace.KindClaimRelease])/per)
	r.layer("core.converts_per_crash", float64(failures.kinds[trace.KindClaimConvert])/per)
	r.layer("transport.frames_per_crash", float64(failures.frames)/per)
	r.layer("transport.frame_bytes_per_crash", float64(failures.frameBytes)/per)
	r.layer("transport.heartbeats", float64(run.heartbeats))
	r.layer("transport.sendframe_us.p50", sendFrame.pct(50, time.Microsecond))
	frames := run.kinds[trace.KindRCCFrame]
	r.layer("rcc.frames", float64(frames)/per)
	r.layer("rcc.msgs_per_frame", float64(run.ctrls)/float64(max(frames, 1)))
	r.layer("rcc.acks", float64(run.kinds[trace.KindRCCAck])/per)
	r.layer("rcc.retransmits", float64(run.kinds[trace.KindRCCRetransmit])/per)
}

// --- wire replay ------------------------------------------------------------

// wireReplay times the wire codec on the captured frames the way the RCC
// endpoints call it — decoding into a reused control scratch, encoding into
// a reused buffer — in nanoseconds per frame. It returns zeros when nothing
// was captured, and ok=false when a captured frame fails to decode or does
// not re-encode to the same bytes.
func wireReplay(frames [][]byte) (encNs, decNs float64, ok bool) {
	if len(frames) == 0 {
		return 0, 0, true
	}
	decoded := make([]wire.Frame, len(frames))
	for i, b := range frames {
		f, err := wire.Unmarshal(b)
		if err != nil {
			return 0, 0, false
		}
		decoded[i] = f
		if b2, err := f.Marshal(); err != nil || string(b2) != string(b) {
			return 0, 0, false
		}
	}
	var scratch []wire.Control
	var buf []byte
	var enc, dec time.Duration
	n := 0
	for enc+dec < 200*time.Millisecond {
		start := time.Now()
		for _, b := range frames {
			if f, _ := wire.UnmarshalScratch(b, scratch); f.Controls != nil {
				scratch = f.Controls
			}
		}
		mid := time.Now()
		for _, f := range decoded {
			buf, _ = f.MarshalAppend(buf[:0])
		}
		enc += time.Since(mid)
		dec += mid.Sub(start)
		n += len(frames)
	}
	return float64(enc) / float64(n), float64(dec) / float64(n), true
}
