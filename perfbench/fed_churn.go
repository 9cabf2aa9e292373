package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"pricepower/internal/check"
	"pricepower/internal/federation"
	"pricepower/internal/sim"
)

// fed-churn is a 3-region federation (federation.SynthConfig(3, 8, seed):
// 8 boards per region, phase-shifted diurnal electricity prices) under
// an open loop of finite tasks: the seeded arrival trace (arrivals.go) is
// generated in virtual time before timing starts, and the benchmark submits
// each epoch's due arrivals through Federation.Submit before stepping the
// epoch. Each region's admission queue holds 256 submissions, so the
// peak overflows it and shedding is counted.
//
// Stresses: admission and price routing (federation and fleet), board
// placement, the task lifecycle, admission queueing, counted shedding and
// price-divergence migration — the north-star path, tasks admitted →
// placed, at 3 regions × 8 boards. Bypasses: core's worker pool and
// many-cluster LBT. Finished tasks are never reaped today (ROADMAP item
// 2), so the live set grows without bound; fleet.live_drift shows it and
// is reported, not gated.
var fedChurnDef = workloadDef{
	name:         "fed-churn",
	why:          "3-region federation, seeded open loop of 1-3 s tasks on a diurnal rate: stresses admission, routing, placement, queueing, shedding and migration",
	step:         "one Federation.Step epoch (3 regions × 8 boards × 4 barriers of 100 virtual ms)",
	tailQ:        0.9,
	realizations: 20,
	build:        newFedChurn,
	prepare:      prepareFedChurn,
	report:       reportFedChurn,
}

const (
	churnRegions   = 3
	churnBoardsPer = 8
	churnQueueCap  = 256
)

type fedChurn struct {
	seed     uint64
	arrivals []arrival
}

func newFedChurn(seed uint64) (runner, error) {
	return &fedChurn{seed: seed, arrivals: churnArrivals.generate(seed)}, nil
}

// prepareFedChurn writes every realization's arrival trace, with its
// expected live set, before any timing starts.
func prepareFedChurn(seed uint64, subs []uint64, outDir string) error {
	return churnArrivals.writeTraces(filepath.Join(outDir, fmt.Sprintf("arrivals-seed%d.csv", seed)), seed, subs)
}

func churnConfig(seed uint64, traced bool) federation.Config {
	cfg := federation.SynthConfig(churnRegions, churnBoardsPer, seed)
	cfg.EpochBarriers = federation.DefaultEpochBarriers
	for i := range cfg.Regions {
		cfg.Regions[i].Fleet.QueueCap = churnQueueCap
		cfg.Regions[i].Fleet.Trace = traced
	}
	return cfg
}

func (w *fedChurn) rep(traced bool, sp *spans) (repResult, error) {
	root := sp.begin("rep", -1)
	defer sp.end(root)
	var rr repResult

	t0 := time.Now()
	id := sp.begin("federation.New", root)
	f, err := federation.New(churnConfig(w.seed, traced))
	sp.end(id)
	if err != nil {
		return rr, err
	}
	defer f.Close()
	rr.Setup = time.Since(t0)

	var ms0, ms1 runtimeSample
	ms0.read()
	var submits []time.Duration
	epochDur := churnArrivals.epochDur
	next := 0
	for e := 0; e < churnArrivals.epochs; e++ {
		// Arrivals due by the epoch's start enter before it is stepped
		// (the rule Federation.SubmitAt applies).
		due := epochDur * sim.Time(e)
		for next < len(w.arrivals) && w.arrivals[next].at <= due {
			spec := w.arrivals[next].spec()
			id := sp.begin("federation.Federation.Submit", root)
			s := time.Now()
			f.Submit(spec)
			d := time.Since(s)
			sp.end(id)
			submits = append(submits, d)
			rr.Busy += d
			next++
		}
		id := sp.begin("federation.Federation.Step", root)
		s := time.Now()
		err := f.Step()
		d := time.Since(s)
		sp.end(id)
		if err != nil {
			return rr, fmt.Errorf("epoch %d: %w", e+1, err)
		}
		rr.Steps = append(rr.Steps, d)
		rr.Busy += d
		// Correctness: the cross-region zero-loss identity holds at every
		// epoch.
		rr.Checks++
		if err := check.CheckFederationConservation(f); err != nil {
			return rr, fmt.Errorf("epoch %d: %w", e+1, err)
		}
	}
	ms1.read()
	rr.SimSec = float64(churnArrivals.epochs*churnRegions*churnBoardsPer) * epochDur.Seconds()

	st := f.StateSnapshot()
	var placed, shed, queued uint64
	live, boardMax := 0, 0
	var hists map[string]*promHist
	for _, r := range f.Regions() {
		fs := r.Fleet().StateSnapshot()
		placed += fs.Counters.Routed
		shed += fs.Counters.Shed
		queued += fs.Counters.Queued
		live += fs.Live()
		for _, b := range fs.Boards {
			if b.Tasks > boardMax {
				boardMax = b.Tasks
			}
		}
		if traced {
			h, err := fleetHists(r.Fleet())
			if err != nil {
				return rr, err
			}
			hists = mergeHists(hists, h)
		}
	}
	rr.Heap = settledHeap()

	// Correctness: every arrival was submitted, and the paths this
	// workload exists to exercise actually ran.
	rr.Checks += 3
	if err := checkf(st.Counters.Submitted == uint64(len(w.arrivals)),
		"federation counted %d submissions, the trace holds %d", st.Counters.Submitted, len(w.arrivals)); err != nil {
		return rr, err
	}
	if err := checkf(st.Counters.Migrations >= 1, "no price-divergence migration fired"); err != nil {
		return rr, err
	}
	if err := checkf(queued >= 1, "no submission waited in an admission queue"); err != nil {
		return rr, err
	}
	rr.Digest = newDigest().federationState(f)
	rr.Info = map[string]float64{
		"submitted": float64(st.Counters.Submitted), "placed": float64(placed), "shed": float64(shed),
		"migrations": float64(st.Counters.Migrations), "migrated": float64(st.Counters.MigratedTasks),
	}

	expected := churnArrivals.expectedLive()
	rr.Layer = map[string]float64{
		"federation.tasks_per_s":    float64(placed) / rr.Busy.Seconds(),
		"federation.shed_frac":      float64(shed) / float64(st.Counters.Submitted),
		"fleet.shed":                float64(shed),
		"fleet.queued_total":        float64(queued),
		"federation.migrations":     float64(st.Counters.Migrations),
		"federation.migrated_tasks": float64(st.Counters.MigratedTasks),
		"fleet.live_end":            float64(live),
		"fleet.live_expected":       expected,
		"fleet.live_drift":          float64(live) / expected,
		"fleet.board_tasks_max":     float64(boardMax),
		"go.alloc_bytes_per_task":   float64(ms1.allocBytes-ms0.allocBytes) / float64(placed),
		"go.gc_cpu_frac":            (ms1.gcCPU - ms0.gcCPU) / (ms1.totalCPU - ms0.totalCPU),
		"go.gc_cycles":              float64(ms1.gcCycles - ms0.gcCycles),
	}
	if traced {
		rr.Layer["federation.submit_us_p50"] = median(durs(submits, ms)) * 1e3
		rr.Layer["fleet.route_us_p50"] = hists["pricepower_fleet_routing_wall_ns"].quantile(0.5) / 1e3
		step := hists["pricepower_fleet_step_wall_ns"]
		rr.Layer["fleet.board_step_ms_p50"] = step.quantile(0.5) / 1e6
		rr.Layer["fleet.board_step_ms_p99"] = step.quantile(0.99) / 1e6
		rr.Layer["fleet.queue_wait_ms_p99"] = hists["pricepower_fleet_queue_wait_ms"].quantile(0.99)
		if res := hists["pricepower_fleet_task_residency_ms"]; res != nil {
			rr.Layer["fleet.completed"] = float64(res.count)
		}
	}
	return rr, nil
}

// mergeHists adds one fleet's histograms into the running federation-wide
// merge.
func mergeHists(acc, h map[string]*promHist) map[string]*promHist {
	if acc == nil {
		acc = map[string]*promHist{}
	}
	for k, v := range h {
		acc[k] = acc[k].plus(v)
	}
	return acc
}

func reportFedChurn(out io.Writer, reps []repResult, e map[string]metricOut) {
	var rates []float64
	for _, rr := range reps {
		rates = append(rates, rr.Info["placed"]/rr.Busy.Seconds())
	}
	in := reps[0].Info
	fmt.Fprintf(out, "  epoch_ms_p50 = %.3f ms, epoch_ms_p90 = %.3f ms; tasks_per_s = %.1f placed per wall-s (median of repeats); shed_frac = %.4f (%.0f of %.0f shed)\n",
		e["step_ms_p50"].Value, e["step_ms_tail"].Value, median(rates), in["shed"]/in["submitted"], in["shed"], in["submitted"])
	fmt.Fprintf(out, "  %.0f migrations moved %.0f tasks; %d regions × %d boards; expected live at the horizon %.1f (Little's law); held-out seed %d\n",
		in["migrations"], in["migrated"], churnRegions, churnBoardsPer, churnArrivals.expectedLive(), heldOutSeed)
}
