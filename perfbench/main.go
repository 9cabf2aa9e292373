// Command perfbench is the repository benchmark. It drives the public
// library API in-process — the paper's PPM market on simulated TC2 boards
// (internal/exp, core, lbt, platform), the price-routed fleet and the
// geo-distributed federation — with fixed-work, seeded workloads, times
// the calls from outside, checks the simulated outputs, and prints one
// JSON result line.
//
//	bash perfbench/run.sh --workload fed-churn --seed 3 --seconds 10 --trace 0
//
// Each run repeats a workload's fixed unit of work (one "repeat": fresh
// set-up, then a fixed number of timed steps) until --seconds have passed
// and the tail percentile has enough samples. Work per repeat never
// scales with speed, so a faster commit runs more repeats, not different
// ones. --trace 0 reports the end-to-end metrics; --trace 1 runs untraced
// and traced repeats in one process, reports the per-layer metrics and
// the tracing overhead, and writes the spans it recorded to --out.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pricepower/internal/sim"
)

// metricDef names one reported metric with its unit and the direction
// that is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the user-visible metrics every workload reports with
// --trace 0 (BENCHMARK.json's end_to_end list). A "step" is the
// workload's unit of user-visible work: one exp.RunSet evaluation run
// (paper-tc2), one Market.StepOnce bid round (table7-256), one Fleet.Step
// barrier (fleet-steady), one Federation.Step epoch (fed-churn); each
// workload's report prints the same figures under its own names
// (round_ms_p99, barrier_ms_p50, epoch_ms_p90, ...).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},          // boot, placement, market build, warm-up; median over repeats
	{"step_ms_p50", "ms", "lower"},     // median wall time per step
	{"step_ms_tail", "ms", "lower"},    // the workload's tail percentile (workloadDef.tailQ)
	{"sim_speed", "sim-s/s", "higher"}, // simulated board-seconds per wall-second of timed calls
	{"heap_mb", "MiB", "lower"},        // live heap after a forced GC at the end of the timed window
}

// perLayer are the single-layer metrics every workload reports with
// --trace 1 (BENCHMARK.json's per_layer list). A layer the workload
// bypasses reports 0; the comments name the workload each belongs to and,
// in brackets, the end-to-end metric it moves.
var perLayer = []metricDef{
	// every workload
	{"trace.overhead_pct", "%", "lower"}, // traced step p50 over untraced step p50, minus 1
	{"trace.spans", "count", "higher"},
	{"go.gc_cycles", "count", "lower"}, // GC cycles per repeat's timed window
	// paper-tc2: single-board tick and 2-cluster governors [sim_speed, step_ms_*]
	{"platform.tick_ns_p50", "ns", "lower"}, // PPM-run ticks without a governor round (sched + task/HRM + hw)
	{"ppm.round_ns_p50", "ns", "lower"},     // extra wall on ticks with a PPM market round
	{"lbt.plan_ns_p50", "ns", "lower"},      // extra wall on ticks with a balance/migrate plan
	{"ppm.run_s", "s", "lower"},             // untraced exp.RunSet wall per sweep, PPM runs
	{"hpm.run_s", "s", "lower"},
	{"hl.run_s", "s", "lower"},
	{"platform.ticks", "count", "higher"}, // exact per sweep: identical under any speed-only change
	{"core.rounds", "count", "higher"},
	{"platform.migrations", "count", "lower"},
	{"hw.vf_transitions", "count", "lower"},
	{"ppm.miss_pct_4w", "%", "lower"},   // Fig 6 PPM mean miss %, 4 W TDP (exact)
	{"ppm.power_w_notdp", "W", "lower"}, // Fig 5 PPM mean power, no TDP (exact)
	// table7-256: many-cluster market and LBT [step_ms_*, sim_speed]
	{"core.tasks", "count", "higher"},
	{"core.round_ms_p50", "ms", "lower"}, // wall per Market.StepOnce (31.7 ms bid period)
	{"core.round_ms_p99", "ms", "lower"},
	{"lbt.plan_ms_p50", "ms", "lower"}, // wall per PlanForCluster (Table 7; 190 ms period)
	{"lbt.plan_ms_p90", "ms", "lower"},
	{"lbt.moves_applied", "count", "higher"},
	{"go.alloc_bytes_per_round", "B", "lower"},
	// fleet-steady and fed-churn: fleet layer [step_ms_*, sim_speed]
	{"fleet.route_us_p50", "us", "lower"}, // Route wall per barrier (fleet histogram, factor-2 buckets)
	{"fleet.board_step_ms_p50", "ms", "lower"},
	{"fleet.board_step_ms_p99", "ms", "lower"},
	{"fleet.parallel_eff", "ratio", "higher"}, // Σ board-step wall / (Σ Fleet.Step wall × GOMAXPROCS)
	{"fleet.snapshot_us_p50", "us", "lower"},
	{"fleet.live_start", "count", "higher"},
	{"fleet.live_end", "count", "lower"},
	{"go.allocs_per_barrier", "count", "lower"},
	// fed-churn: federation, admission and task lifecycle [step_ms_*, sim_speed, heap_mb]
	{"federation.submit_us_p50", "us", "lower"},
	{"federation.tasks_per_s", "1/s", "higher"}, // tasks placed on a board per wall-second
	{"federation.shed_frac", "ratio", "lower"},  // tasks shed / tasks submitted
	{"fleet.queue_wait_ms_p99", "ms", "lower"},  // virtual ms, admission to routing
	{"fleet.completed", "count", "higher"},      // residency spans closed as completed
	{"fleet.shed", "count", "lower"},
	{"fleet.queued_total", "count", "lower"},
	{"federation.migrations", "count", "lower"},
	{"federation.migrated_tasks", "count", "lower"},
	{"fleet.live_expected", "count", "lower"}, // Little's law for the arrival trace
	{"fleet.live_drift", "ratio", "lower"},    // live_end / live_expected; reported, not gated
	{"fleet.board_tasks_max", "count", "lower"},
	{"go.alloc_bytes_per_task", "B", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
}

// repResult is one repeat of a workload's fixed unit of work. It crosses
// the process boundary as JSON (see measure).
type repResult struct {
	Setup  time.Duration              `json:"setup_ns"` // set-up before the timed window
	Steps  []time.Duration            `json:"steps_ns"` // wall per step
	Busy   time.Duration              `json:"busy_ns"`  // Σ wall of every timed library call in the window
	SimSec float64                    `json:"sim_s"`    // simulated board-seconds advanced in the window
	Heap   uint64                     `json:"heap_bytes"`
	Digest digest                     `json:"digest"` // simulated-state digest at the window's end
	Checks int                        `json:"checks"` // correctness checks evaluated
	Layer  map[string]float64         `json:"layer,omitempty"`
	Info   map[string]float64         `json:"info,omitempty"`   // values the workload's report prints
	Sub    map[string][]time.Duration `json:"sub_ns,omitempty"` // named secondary samples (table7: rounds, LBT plans)
	Real   int                        `json:"realization"`      // which of the run's realizations this repeat ran
}

// runner executes repeats of one workload for one seed.
type runner interface {
	rep(traced bool, sp *spans) (repResult, error)
}

// workloadDef declares one workload. why is one line, kept identical to
// the BENCHMARK.json description; the per-workload files say at length
// which layers each stresses or bypasses.
type workloadDef struct {
	name, why string
	step      string  // what one step sample times
	tailQ     float64 // tail percentile reported as step_ms_tail
	// realizations is how many independently seeded inputs one run
	// measures (a multiple of measureProcs). Where one seed's inputs
	// change the cost, pooling several keeps one run's figures close to
	// another's.
	realizations int
	build        func(seed uint64) (runner, error)
	// prepare, when set, writes the run's generated inputs before any
	// timing starts.
	prepare func(seed uint64, subSeeds []uint64, outDir string) error
	// report prints the workload's own view of the untraced repeats,
	// under the metric names its layer uses.
	report func(w io.Writer, reps []repResult, e2e map[string]metricOut)
}

var workloads = []workloadDef{paperTC2Def, table7Def, fleetSteadyDef, fedChurnDef}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

//go:embed digests.json
var recordedDigestsJSON []byte

// recordedDigest returns the sim_digest the seed commit produced for a
// workload and seed ("*" entries are seed-independent). A speed-only
// change keeps every digest; a model change must say which it moves.
func recordedDigest(workload string, seed uint64) (string, bool) {
	var m map[string]map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &m); err != nil {
		return "", false
	}
	if d, ok := m[workload][fmt.Sprint(seed)]; ok {
		return d, true
	}
	d, ok := m[workload]["*"]
	return d, ok
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// measureProcs is how many measuring processes one run starts, one after
// another. Timings differ between processes (heap layout, thread
// placement) as well as between inputs, so a run pools the repeats of
// several processes, each measuring its own share of the realizations.
const measureProcs = 5

// procsDeadline bounds all measuring processes of one run together: a
// process still running then is killed and the run fails, so a hang can
// not keep the benchmark from ending.
const procsDeadline = 170 * time.Second

// subSeeds derives the run's realization seeds from --seed.
func subSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = sim.DeriveSeed(seed, uint64(i))
	}
	return out
}

// procResult is what one measuring process hands back: the digests and
// checks of its warm-up repeats (run and checked, not timed), its timed
// untraced and traced repeats, and how many spans it recorded.
type procResult struct {
	Warm     []repResult `json:"warm"`
	Untraced []repResult `json:"untraced"`
	Traced   []repResult `json:"traced"`
	Spans    int         `json:"spans"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-tc2, table7-256, fleet-steady or fed-churn")
	seed := fs.Uint64("seed", 1, "workload seed (the program sees only the inputs generated from it)")
	seconds := fs.Float64("seconds", 10, "measuring time, shared out among the measuring processes")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, traced")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans and arrival traces")
	proc := fs.Int("proc", -1, "internal: run as measuring process number n and print its repeats")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	traced := *traceFlag == 1
	subs := subSeeds(*seed, def.realizations)
	if *proc >= 0 {
		return measure(def, *seed, subs, *seconds, traced, *outDir, *proc, stdout, stderr)
	}

	// Parent: write the generated inputs, then start the measuring
	// processes one after another, each with an equal share of the time,
	// and pool their repeats.
	start := time.Now()
	fail := func(attempted int, format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "perfbench: run failed: "+format+"\n", args...)
		printResult(stdout, result{Correct: false, Attempted: attempted + 1, Failed: 1, Metrics: map[string]metricOut{}})
		return 1
	}
	if def.prepare != nil {
		if err := def.prepare(*seed, subs, *outDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), procsDeadline)
	defer cancel()
	var procs []procResult
	for k := 0; k < measureProcs; k++ {
		pr, err := runProc(ctx, exe, def, *seed, *seconds/measureProcs, *traceFlag, *outDir, k, stderr)
		if err != nil {
			return fail(0, "%v", err)
		}
		procs = append(procs, pr)
	}
	untraced, tracedReps := equalRounds(procs, def.realizations/measureProcs)
	if n := len(stepMs(untraced)); n < minSamplesFor(def.tailQ) {
		return fail(0, "%d step samples leave fewer than ten beyond the p%g tail", n, def.tailQ*100)
	}

	all := append(append([]repResult(nil), untraced...), tracedReps...)
	attempted := len(stepMs(all))
	simDigest, checks, err := checkDigests(procs, subs)
	if err != nil {
		return fail(attempted, "%v", err)
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d: %d realizations, %d untraced + %d traced repeats in %d processes, %.1f s\n",
		def.name, *seed, *traceFlag, def.realizations, len(untraced), len(tracedReps), len(procs), time.Since(start).Seconds())
	def.report(stdout, untraced, endToEndValues(def, untraced))

	metrics := map[string]metricOut{}
	if traced {
		layer := map[string]float64{}
		for _, m := range perLayer {
			layer[m.name] = 0
		}
		for k, v := range mergeLayers(all) {
			if _, ok := layer[k]; !ok {
				fmt.Fprintf(stderr, "perfbench: workload reported undeclared metric %q\n", k)
				return 1
			}
			layer[k] = v
		}
		layer["trace.overhead_pct"] = (median(stepMs(tracedReps))/median(stepMs(untraced)) - 1) * 100
		layer["trace.spans"] = 0
		for _, pr := range procs {
			layer["trace.spans"] += float64(pr.Spans)
		}
		for _, m := range perLayer {
			metrics[m.name] = metricOut{layer[m.name], m.unit}
			fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", m.name, layer[m.name], m.unit)
		}
		fmt.Fprintf(stdout, "  spans written to %s\n", filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d-proc*.jsonl", def.name, *seed)))
	} else {
		for k, v := range endToEndValues(def, untraced) {
			metrics[k] = v
		}
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "  %-14s %14.6g %s\n", m.name, metrics[m.name].Value, m.unit)
		}
	}

	for k, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fail(attempted, "metric %s is not finite", k)
		}
	}
	meta := metadata(def, *seed, *seconds, traced, len(procs), untraced, tracedReps, checks, simDigest)
	mb, err := json.Marshal(meta)
	if err != nil {
		return fail(attempted, "run metadata: %v", err)
	}
	fmt.Fprintf(stdout, "meta %s\n", mb)

	printResult(stdout, result{Correct: true, Attempted: attempted, Failed: 0, Metrics: metrics})
	return 0
}

// checkDigests verifies that every repeat of one realization — warm-up,
// untraced or traced, in whichever process — ends in the same simulated
// state, and folds the realizations' digests into the run's sim_digest.
// It also totals the checks the repeats evaluated.
func checkDigests(procs []procResult, subs []uint64) (digest, int, error) {
	want := make([]digest, len(subs))
	seen := make([]bool, len(subs))
	checks := 0
	for _, pr := range procs {
		for _, rr := range append(append(append([]repResult(nil), pr.Warm...), pr.Untraced...), pr.Traced...) {
			checks += rr.Checks
			if !seen[rr.Real] {
				want[rr.Real], seen[rr.Real] = rr.Digest, true
				continue
			}
			checks++
			if rr.Digest != want[rr.Real] {
				return 0, checks, fmt.Errorf("realization %d (seed %d) ended in sim_digest %016x and in %016x",
					rr.Real, subs[rr.Real], uint64(rr.Digest), uint64(want[rr.Real]))
			}
		}
	}
	d := newDigest()
	for i, w := range want {
		if !seen[i] {
			return 0, checks, fmt.Errorf("realization %d was never run", i)
		}
		d = d.word(uint64(w))
	}
	return d, checks, nil
}

// equalRounds keeps the same number of whole rounds from every process,
// so each realization weighs the same in the pooled figures however fast
// its process ran. A round is one repeat of each of a process's
// realizations.
func equalRounds(procs []procResult, perProc int) (untraced, traced []repResult) {
	nu, nt := math.MaxInt, math.MaxInt
	for _, pr := range procs {
		nu = min(nu, len(pr.Untraced)/perProc)
		nt = min(nt, len(pr.Traced)/perProc)
	}
	for _, pr := range procs {
		untraced = append(untraced, pr.Untraced[:nu*perProc]...)
		traced = append(traced, pr.Traced[:nt*perProc]...)
	}
	return untraced, traced
}

// runProc starts measuring process k, waits for it to end and decodes the
// repeats it printed.
func runProc(ctx context.Context, exe string, def workloadDef, seed uint64, seconds float64, trace int, outDir string, k int, stderr io.Writer) (procResult, error) {
	var pr procResult
	cmd := exec.CommandContext(ctx, exe, "--proc", strconv.Itoa(k), "--workload", def.name,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "--out", outDir)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return pr, fmt.Errorf("measuring process %d: %w", k, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &pr); err != nil {
		return pr, fmt.Errorf("measuring process %d: %w", k, err)
	}
	return pr, nil
}

// measure is one measuring process. It owns realizations k, k+P, k+2P, …
// of the run (P measuring processes). One warm-up repeat of the first
// comes first (run and checked, not timed: a fresh process pays one-time
// page faults and heap growth in it), then the process runs whole rounds — one repeat of each
// of its realizations — for its time share untraced and, tracing, for as
// long again traced, writing the traced spans out at exit.
func measure(def workloadDef, seed uint64, subs []uint64, seconds float64, traced bool, outDir string, k int, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	var mine []int
	var runners []runner
	for i := k; i < len(subs); i += measureProcs {
		r, err := def.build(subs[i])
		if err != nil {
			return fail(err)
		}
		mine = append(mine, i)
		runners = append(runners, r)
	}
	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget /= 2
	}
	var pr procResult
	var err error
	if pr.Warm, err = rounds(runners[:1], mine[:1], false, nil, 0); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	if pr.Untraced, err = rounds(runners, mine, false, nil, budget); err != nil {
		return fail(err)
	}
	if traced {
		sp := newSpans()
		if pr.Traced, err = rounds(runners, mine, true, sp, budget); err != nil {
			return fail(err)
		}
		pr.Spans = len(sp.list)
		if err := sp.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d-proc%d.jsonl", def.name, seed, k))); err != nil {
			return fail(err)
		}
	}
	b, err := json.Marshal(pr)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// rounds runs whole rounds, at least one, until the budget has passed.
// Every repeat ends with a forced, untimed GC so the next one starts from
// a settled heap.
func rounds(runners []runner, real []int, traced bool, sp *spans, budget time.Duration) ([]repResult, error) {
	var reps []repResult
	t0 := time.Now()
	for len(reps) == 0 || time.Since(t0) < budget {
		for i, r := range runners {
			if sp != nil {
				sp.run = len(reps)
			}
			rr, err := r.rep(traced, sp)
			if err != nil {
				return reps, fmt.Errorf("realization %d, repeat %d: %w", real[i], len(reps), err)
			}
			runtime.GC()
			rr.Real = real[i]
			reps = append(reps, rr)
		}
	}
	return reps, nil
}

func stepMs(reps []repResult) []float64 {
	var out []float64
	for _, rr := range reps {
		out = append(out, durs(rr.Steps, ms)...)
	}
	return out
}

// endToEndValues aggregates untraced repeats into the end-to-end metrics.
func endToEndValues(def workloadDef, reps []repResult) map[string]metricOut {
	var setup, heap []float64
	var sim, busy float64
	for _, rr := range reps {
		setup = append(setup, rr.Setup.Seconds())
		heap = append(heap, float64(rr.Heap)/(1<<20))
		sim += rr.SimSec
		busy += rr.Busy.Seconds()
	}
	steps := stepMs(reps)
	return map[string]metricOut{
		"setup_s":      {median(setup), "s"},
		"step_ms_p50":  {median(steps), "ms"},
		"step_ms_tail": {quantile(steps, def.tailQ), "ms"},
		"sim_speed":    {sim / busy, "sim-s/s"},
		"heap_mb":      {median(heap), "MiB"},
	}
}

// mergeLayers takes, for every per-layer key, the median over the repeats
// that report it (wall-time keys come from traced repeats only, exp.RunSet
// group totals from untraced ones; counts are identical in all).
func mergeLayers(reps []repResult) map[string]float64 {
	vals := map[string][]float64{}
	for _, rr := range reps {
		for k, v := range rr.Layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// runMeta is the provenance printed with every result.
type runMeta struct {
	Workload       string            `json:"workload"`
	Seed           uint64            `json:"seed"`
	HeldOutSeed    uint64            `json:"held_out_seed"`
	Trace          bool              `json:"trace"`
	RunSeconds     float64           `json:"run_seconds"`
	Processes      int               `json:"processes"`
	Repeats        int               `json:"repeats"`
	TracedRepeats  int               `json:"traced_repeats"`
	StepSamples    int               `json:"step_samples"`
	Step           string            `json:"step"`
	TailPercentile float64           `json:"tail_percentile"`
	Checks         int               `json:"checks"`
	SimDigest      string            `json:"sim_digest"`
	SeedCommit     string            `json:"sim_digest_vs_seed_commit"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	NumCPU         int               `json:"nproc"`
	GoVersion      string            `json:"go_version"`
	CPU            string            `json:"cpu_model"`
	Commit         string            `json:"commit"`
	PerRepeat      map[string]spread `json:"per_repeat"`
	Note           string            `json:"note"`
}

func metadata(def workloadDef, seed uint64, seconds float64, traced bool, procs int, untraced, tracedReps []repResult, checks int, dg digest) runMeta {
	per := map[string]spread{}
	var setup, p50, speed, heap []float64
	for _, rr := range untraced {
		setup = append(setup, rr.Setup.Seconds())
		p50 = append(p50, median(durs(rr.Steps, ms)))
		speed = append(speed, rr.SimSec/rr.Busy.Seconds())
		heap = append(heap, float64(rr.Heap)/(1<<20))
	}
	per["setup_s"] = spreadOf(setup)
	per["step_ms_p50"] = spreadOf(p50)
	per["sim_speed"] = spreadOf(speed)
	per["heap_mb"] = spreadOf(heap)

	cmp := "not recorded for this seed"
	if want, ok := recordedDigest(def.name, seed); ok {
		cmp = "identical"
		if want != fmt.Sprintf("%016x", uint64(dg)) {
			cmp = "differs (recorded " + want + "): the simulated model changed"
		}
	}
	return runMeta{
		Workload: def.name, Seed: seed, HeldOutSeed: heldOutSeed, Trace: traced,
		RunSeconds: seconds, Processes: procs, Repeats: len(untraced), TracedRepeats: len(tracedReps),
		StepSamples: len(stepMs(untraced)), Step: def.step, TailPercentile: def.tailQ,
		Checks: checks, SimDigest: fmt.Sprintf("%016x", uint64(dg)), SeedCommit: cmp,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		CPU: cpuModel(), Commit: commit(), PerRepeat: per,
		Note: "wall times are host wall-clock of a simulator; the simulated model is otherwise unvalidated against hardware",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the BENCH_COMMIT environment
// variable, else the checkout's git HEAD when there is one.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

func printResult(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// checkf returns a formatted correctness error when ok is false.
func checkf(ok bool, format string, args ...interface{}) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}
