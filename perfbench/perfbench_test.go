package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/exp"
	"pricepower/internal/sim"
	"pricepower/internal/workload"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
		if w.realizations < measureProcs || w.realizations%measureProcs != 0 {
			t.Errorf("workload %s: %d realizations, want a multiple of %d", w.name, w.realizations, measureProcs)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and perfbench's own tables in
// step: the same workloads with the same descriptions, and the same
// metrics with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW [][2]string
	for _, w := range spec.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads\n%v\nwant\n%v", gotW, wantW)
	}
	metrics := func(ms []metricDef) [][3]string {
		var out [][3]string
		for _, m := range ms {
			out = append(out, [3]string{m.name, m.unit, m.better})
		}
		return out
	}
	for _, c := range []struct {
		key  string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got [][3]string
		for _, m := range c.got {
			got = append(got, [3]string{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, metrics(c.want)) {
			t.Errorf("BENCHMARK.json %s\n%v\nwant\n%v", c.key, got, metrics(c.want))
		}
	}
}

func TestRecordedDigests(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, heldOutSeed} {
			if d, ok := recordedDigest(w.name, seed); !ok || len(d) != 16 {
				t.Errorf("%s seed %d: recorded digest %q, %v", w.name, seed, d, ok)
			}
		}
	}
}

func TestArrivalsDeterministicPerSeed(t *testing.T) {
	a, b := churnArrivals.generate(7), churnArrivals.generate(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different arrival traces")
	}
	c := churnArrivals.generate(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same arrival trace")
	}
	if len(a) != len(c) {
		t.Errorf("arrival counts differ by seed (%d vs %d); they follow the intensity alone", len(a), len(c))
	}
	if want := int(math.Floor(churnArrivals.integral(0, churnArrivals.arrivalEndS()) + 1e-9)); len(a) != want {
		t.Errorf("%d arrivals, want ⌊∫rate⌋ = %d", len(a), want)
	}
	m := churnArrivals
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, x.at, i-1, a[i-1].at)
		}
		if s := x.at.Seconds(); s < 0 || s >= m.arrivalEndS() {
			t.Errorf("arrival %d at %v s outside the trace", i, s)
		}
		if l := x.life.Seconds(); l < m.lifeMinS || l > m.lifeMaxS {
			t.Errorf("arrival %d lifetime %v s outside [%v, %v]", i, l, m.lifeMinS, m.lifeMaxS)
		}
		if x.demandPU < m.demandMin || x.demandPU > m.demandMax {
			t.Errorf("arrival %d demand %v outside [%v, %v]", i, x.demandPU, m.demandMin, m.demandMax)
		}
		spec := x.spec()
		if err := spec.Validate(); err != nil || spec.Loop {
			t.Errorf("arrival %d spec invalid or looping: %v", i, err)
		}
	}
}

func TestExpectedLiveIsLittlesLaw(t *testing.T) {
	// A flat rate with arrivals running to the horizon gives λ·E[life].
	m := arrivalModel{meanRate: 50, lifeMinS: 1, lifeMaxS: 3, epochs: 100, epochDur: churnArrivals.epochDur}
	got := m.expectedLive()
	// Arrivals stop one epoch (0.4 s) before the horizon: the last 0.4 s
	// of arrivals, all still alive, are missing.
	want := 50*2.0 - 50*0.4
	if math.Abs(got-want) > 0.05 {
		t.Errorf("expected live %v, want %v", got, want)
	}
}

// TestTracedRunSetMatchesRunSet runs the traced paper-tc2 path next to
// exp.RunSet on a sample of the sweep (every governor, both TDPs).
func TestTracedRunSetMatchesRunSet(t *testing.T) {
	set, _ := workload.SetByName("m2")
	obs := &tickObserver{plain: newLogHist(), round: newLogHist(), lbt: newLogHist()}
	for _, tdp := range []float64{0, 4} {
		for _, gov := range exp.GovernorNames {
			run := paperRun{gov, set, tdp}
			want, err := exp.RunSet(gov, set, tdp, exp.DefaultRunDuration)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tracedRunSet(run, obs)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRun(got, want) {
				t.Errorf("%s: traced %+v, exp.RunSet %+v", run.key(), got, want)
			}
			if newDigest().runResult(got) != newDigest().runResult(want) {
				t.Errorf("%s: digests differ", run.key())
			}
		}
	}
	ticksPerRun := int((exp.Warmup + exp.DefaultRunDuration) / sim.Millisecond) // TC2 ticks every 1 ms
	if obs.ticks != 6*ticksPerRun {
		t.Errorf("observer saw %d ticks, want %d", obs.ticks, 6*ticksPerRun)
	}
	if obs.rounds == 0 || obs.plain.n == 0 || obs.round.n == 0 || obs.lbt.n == 0 {
		t.Errorf("PPM ticks not classified: rounds %d, plain %d, round %d, lbt %d",
			obs.rounds, obs.plain.n, obs.round.n, obs.lbt.n)
	}
}

func TestSameRunToleratesOnlyHeartbeatRounding(t *testing.T) {
	a := exp.RunResult{Governor: "PPM", Set: "m2", MissFrac: 0.1, Heartbeats: 12281.439349347109}
	b := a
	b.Heartbeats = 12281.43934934711 // last-bit difference from summation order
	if !sameRun(a, b) || newDigest().runResult(a) != newDigest().runResult(b) {
		t.Error("a last-bit heartbeat difference is not tolerated")
	}
	b.Heartbeats = 12281.44
	if sameRun(a, b) {
		t.Error("a real heartbeat difference is tolerated")
	}
	b = a
	b.MissFrac = math.Nextafter(a.MissFrac, 1)
	if sameRun(a, b) || newDigest().runResult(a) == newDigest().runResult(b) {
		t.Error("a last-bit miss-fraction difference is tolerated")
	}
}

type fleetLedger [5]uint64

func (l fleetLedger) FleetAccounting() (accepted, live, queued, inflight, orphaned uint64) {
	return l[0], l[1], l[2], l[3], l[4]
}

type fedLedger [6]uint64

func (l fedLedger) FederationAccounting() (accepted, live, queued, inflight, orphaned, migrating uint64) {
	return l[0], l[1], l[2], l[3], l[4], l[5]
}

// TestConservationChecksTrip feeds the ledger checks perfbench runs at
// every barrier and epoch a balanced and a mismatched tuple.
func TestConservationChecksTrip(t *testing.T) {
	if err := check.CheckFleetConservation(fleetLedger{10, 6, 2, 1, 1}); err != nil {
		t.Errorf("balanced fleet ledger: %v", err)
	}
	if err := check.CheckFleetConservation(fleetLedger{10, 6, 2, 1, 0}); err == nil {
		t.Error("fleet ledger missing one task passed")
	}
	if err := check.CheckFederationConservation(fedLedger{12, 6, 2, 1, 1, 2}); err != nil {
		t.Errorf("balanced federation ledger: %v", err)
	}
	if err := check.CheckFederationConservation(fedLedger{12, 6, 2, 1, 1, 3}); err == nil {
		t.Error("federation ledger with one task too many passed")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q1 %v, want 2", q)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	for q, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000, 0.999: 10000} {
		if got := minSamplesFor(q); got != want {
			t.Errorf("minSamplesFor(%v) = %d, want %d", q, got, want)
		}
	}
	h := newLogHist()
	for i := 1; i <= 1000; i++ {
		h.add(float64(i))
	}
	if q := h.quantile(0.5); q < 500 || q > 505 {
		t.Errorf("log histogram median %v, want within 1%% above 500", q)
	}
}

func TestParseProm(t *testing.T) {
	const text = `# HELP x_ns wall
# TYPE x_ns histogram
x_ns_bucket{le="100"} 2
x_ns_bucket{le="200"} 5 # {trace_id="00000000000000ff"} 150
x_ns_bucket{le="+Inf"} 6
x_ns_sum 900
x_ns_count 6
x_ns_bucket{board="1",le="100"} 1
`
	hs, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	h := hs["x_ns"]
	if h == nil || h.count != 6 || h.sum != 900 || len(h.cum) != 3 {
		t.Fatalf("parsed %+v", h)
	}
	if q := h.quantile(0.5); q != 200 {
		t.Errorf("p50 %v, want 200", q)
	}
	if q := h.quantile(1); q != 200 {
		t.Errorf("p100 %v, want the last finite bound 200", q)
	}
	d := h.minus(&promHist{le: h.le, cum: []uint64{2, 2, 2}, sum: 100, count: 2})
	if d.count != 4 || d.sum != 800 || d.quantile(0.5) != 200 {
		t.Errorf("difference %+v", d)
	}
	if m := h.plus(h); m.count != 12 || m.cum[2] != 12 {
		t.Errorf("merge %+v", m)
	}
}
