package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestStormTracedTransparent runs the same storm seed bare and traced: the
// traced seams must not change what the protocol does, so the simulated Γ
// and resume samples and the protocol counters are identical, and every
// sampled recovery's waterfall sums exactly to its Γ.
func TestStormTracedTransparent(t *testing.T) {
	const seed, cycles = 7, 12
	bare, err := newStorm(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := newStorm(seed, tr)
	if err != nil {
		t.Fatal(err)
	}
	samples, reported := 0, 0
	for i := 0; i < cycles; i++ {
		b, err := bare.crash()
		if err != nil {
			t.Fatalf("bare cycle %d: %v", i, err)
		}
		c, err := traced.crash()
		if err != nil {
			t.Fatalf("traced cycle %d: %v", i, err)
		}
		if b.victim != c.victim || b.affected != c.affected || b.restored != c.restored || len(b.recoveries) != len(c.recoveries) {
			t.Fatalf("cycle %d: bare %+v vs traced %+v", i, b, c)
		}
		for j, r := range c.recoveries {
			if r.gamma != b.recoveries[j].gamma || r.resume != b.recoveries[j].resume {
				t.Fatalf("cycle %d recovery %d: traced Γ %v resume %v, bare Γ %v resume %v",
					i, j, r.gamma, r.resume, b.recoveries[j].gamma, b.recoveries[j].resume)
			}
			var sum time.Duration
			for _, p := range r.phases {
				if p < 0 {
					t.Fatalf("cycle %d recovery %d: negative phase in %v", i, j, r.phases)
				}
				sum += p
			}
			if sum != r.gamma {
				t.Fatalf("cycle %d recovery %d: phases %v sum to %v, Γ %v", i, j, r.phases, sum, r.gamma)
			}
			if r.phases[1] > 0 {
				reported++
			}
			samples++
		}
		if _, err := bare.repair(b.victim); err != nil {
			t.Fatalf("bare cycle %d: %v", i, err)
		}
		if _, err := traced.repair(c.victim); err != nil {
			t.Fatalf("traced cycle %d: %v", i, err)
		}
	}
	if bare.net.Stats() != traced.net.Stats() {
		t.Fatalf("stats differ:\nbare   %+v\ntraced %+v", bare.net.Stats(), traced.net.Stats())
	}
	if samples == 0 || reported == 0 {
		t.Fatalf("%d recoveries, %d with a report hop: the waterfall saw nothing", samples, reported)
	}
	if tr.c.callbacks == 0 || tr.c.frames == 0 {
		t.Fatalf("traced seams saw no traffic: %+v", tr.c)
	}
	for _, p := range traced.drain() {
		t.Errorf("traced drain: %s", p)
	}
	for _, v := range traced.chk.Finish() {
		t.Errorf("conformance: %s at %v: %s", v.Rule, v.At, v.Detail)
	}
}

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkManifest checks that every workload BENCHMARK.json names
// exists and reports exactly its end-to-end metrics with their units, and
// that the per-layer list matches layerMetrics.
func TestBenchmarkManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(m.PerLayer), len(layerMetrics))
	}
	for i, l := range m.PerLayer {
		if want := layerMetrics[i]; l.Name != want.name || l.Unit != want.unit || l.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, l, want)
		}
	}
	want := make(map[string]string)
	for _, e := range m.EndToEnd {
		want[e.Name] = e.Unit
	}
	for _, w := range m.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q is not implemented", w.Name)
			continue
		}
		rep := run(3, 300*time.Millisecond, false)
		if !rep.correct() {
			t.Errorf("%s: %v", w.Name, rep.checks)
		}
		var got []string
		for name, mt := range rep.e2e {
			got = append(got, name)
			if want[name] != mt.Unit {
				t.Errorf("%s: metric %s unit %q, BENCHMARK.json %q", w.Name, name, mt.Unit, want[name])
			}
			if mt.Value == 0 {
				t.Errorf("%s: metric %s is 0", w.Name, name)
			}
		}
		if len(got) != len(want) {
			sort.Strings(got)
			t.Errorf("%s reports %v, BENCHMARK.json lists %d metrics", w.Name, got, len(want))
		}
	}
}

// TestTracedRuns runs every workload briefly in traced mode: the run must
// pass its checks and fill in the per-layer metrics of the layers it drives.
func TestTracedRuns(t *testing.T) {
	busy := map[string][]string{
		"provision": {"routing.disjoint_us", "core.establish_us.p50", "core.trial_us.p50", "core.sweep_speedup"},
		"storm":     {"sim.callbacks_per_crash", "transport.frames_per_crash", "wire.decode_ns_per_frame", "rcc.frames", "bcpd.detect_ms.p50", "core.claims_per_crash"},
		"live-udp":  {"transport.sendframe_us.p50", "bcpd.handler_us.p50", "realtime.mailbox_wait_us.p50", "realtime.timer_late_us.p50", "rcc.frames"},
	}
	for name, metrics := range busy {
		rep := workloads[name](5, time.Second, true)
		if !rep.correct() {
			t.Errorf("%s: %v", name, rep.checks)
		}
		want := len(layerMetrics)
		if name == "storm" {
			want += len(stormLayerMetrics)
		}
		if len(rep.layers) != want {
			t.Errorf("%s: %d layer metrics, want %d", name, len(rep.layers), want)
		}
		for _, m := range metrics {
			if rep.layers[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, rep.layers[m].Value)
			}
		}
	}
}
