package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"pricepower/internal/check"
	"pricepower/internal/fleet"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/workload"
)

// fleet-steady is a 64-board fleet at an 8 W per-board TDP carrying a
// resident load: seven copies of each Table 6 set (looping tasks, 189 in
// all) are submitted and placed during set-up; the timed window then
// steps batch barriers with no arrivals, so the live set is stationary.
//
// Stresses: the board batches (platform tick and 2-cluster PPM on every
// board) and the barrier fan-out/collect across board goroutines.
// Bypasses: admission, routing (every barrier routes an empty batch),
// allocation of new tasks and the task lifecycle — no task arrives or
// finishes. It is the no-change workload for lifecycle, allocation and
// admission changes, while still running the changed fleet code.
// Seed: the fleet seed (per-board streams) and the submission order of
// the fixed set multiset.
var fleetSteadyDef = workloadDef{
	name:         "fleet-steady",
	why:          "64-board fleet, 8 W TDP, resident Table 6 sets, barriers with no arrivals: stresses board batches and barrier fan-out, bypasses admission and task lifecycle",
	step:         "one Fleet.Step batch barrier (64 boards × 100 virtual ms)",
	tailQ:        0.99,
	realizations: 10,
	build:        newFleetSteady,
	report:       reportFleetSteady,
}

const (
	steadyBoards   = 64
	steadyTDP      = 8
	steadyCopies   = 7   // copies of each Table 6 set
	steadyBarriers = 400 // timed barriers per repeat
	steadyWarmup   = 10  // set-up barriers after placement
)

type fleetSteady struct {
	seed  uint64
	specs []task.Spec
}

func newFleetSteady(seed uint64) (runner, error) {
	var specs []task.Spec
	for c := 0; c < steadyCopies; c++ {
		for _, set := range workload.Sets {
			s, err := set.Specs(1)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s...)
		}
	}
	rng := sim.NewRand(seed)
	for i := len(specs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		specs[i], specs[j] = specs[j], specs[i]
	}
	return &fleetSteady{seed: seed, specs: specs}, nil
}

func (w *fleetSteady) rep(traced bool, sp *spans) (repResult, error) {
	root := sp.begin("rep", -1)
	defer sp.end(root)
	var rr repResult

	t0 := time.Now()
	id := sp.begin("fleet.New", root)
	f, err := fleet.New(fleet.Config{Boards: steadyBoards, Seed: w.seed, TDP: steadyTDP, Trace: traced})
	sp.end(id)
	if err != nil {
		return rr, err
	}
	defer f.Close()
	id = sp.begin("fleet.Fleet.Submit", root)
	f.Submit(w.specs...)
	sp.end(id)
	for i := 0; i < steadyWarmup; i++ {
		if err := f.Step(); err != nil {
			return rr, err
		}
	}
	rr.Setup = time.Since(t0)
	start := f.StateSnapshot()
	rr.Checks++
	if err := checkf(start.Live() == len(w.specs) && start.QueueLen == 0,
		"set-up placed %d of %d tasks (queue %d)", start.Live(), len(w.specs), start.QueueLen); err != nil {
		return rr, err
	}

	var before map[string]*promHist
	if traced {
		if before, err = fleetHists(f); err != nil {
			return rr, err
		}
	}
	var ms0, ms1 runtimeSample
	ms0.read()
	var snaps []time.Duration
	for b := 0; b < steadyBarriers; b++ {
		id := sp.begin("fleet.Fleet.Step", root)
		s := time.Now()
		err := f.Step()
		d := time.Since(s)
		sp.end(id)
		if err != nil {
			return rr, err
		}
		rr.Steps = append(rr.Steps, d)
		rr.Busy += d
		// Correctness: the zero-loss identity holds at every barrier.
		rr.Checks++
		if err := check.CheckFleetConservation(f); err != nil {
			return rr, fmt.Errorf("barrier %d: %w", b, err)
		}
		if traced {
			id := sp.begin("fleet.Fleet.StateSnapshot", root)
			s := time.Now()
			f.StateSnapshot()
			snaps = append(snaps, time.Since(s))
			sp.end(id)
		}
	}
	ms1.read()
	rr.SimSec = float64(steadyBarriers*steadyBoards) * fleet.DefaultBatch.Seconds()
	end := f.StateSnapshot()
	rr.Heap = settledHeap()

	rr.Checks++
	if err := checkf(end.Live() == start.Live() && end.Counters.Shed == 0,
		"live set moved from %d to %d (shed %d) with no arrivals", start.Live(), end.Live(), end.Counters.Shed); err != nil {
		return rr, err
	}
	rr.Digest = newDigest().fleetState(end)

	rr.Layer = map[string]float64{
		"fleet.live_start":      float64(start.Live()),
		"fleet.live_end":        float64(end.Live()),
		"go.allocs_per_barrier": float64(ms1.allocs-ms0.allocs) / steadyBarriers,
		"go.gc_cycles":          float64(ms1.gcCycles - ms0.gcCycles),
	}
	if traced {
		after, err := fleetHists(f)
		if err != nil {
			return rr, err
		}
		route := after["pricepower_fleet_routing_wall_ns"].minus(before["pricepower_fleet_routing_wall_ns"])
		step := after["pricepower_fleet_step_wall_ns"].minus(before["pricepower_fleet_step_wall_ns"])
		rr.Layer["fleet.route_us_p50"] = route.quantile(0.5) / 1e3
		rr.Layer["fleet.board_step_ms_p50"] = step.quantile(0.5) / 1e6
		rr.Layer["fleet.board_step_ms_p99"] = step.quantile(0.99) / 1e6
		rr.Layer["fleet.parallel_eff"] = step.sum / (float64(rr.Busy.Nanoseconds()) * float64(runtime.GOMAXPROCS(0)))
		rr.Layer["fleet.snapshot_us_p50"] = median(durs(snaps, ms)) * 1e3
	}
	return rr, nil
}

// fleetHists reads a traced fleet's latency histograms.
func fleetHists(f *fleet.Fleet) (map[string]*promHist, error) {
	var buf bytes.Buffer
	if err := f.WriteHistograms(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

func reportFleetSteady(out io.Writer, _ []repResult, e map[string]metricOut) {
	fmt.Fprintf(out, "  barrier_ms_p50 = %.4f ms, barrier_ms_p99 = %.4f ms; sim_speed = %.1f board-s per wall-s (%d boards, GOMAXPROCS %d)\n",
		e["step_ms_p50"].Value, e["step_ms_tail"].Value, e["sim_speed"].Value, steadyBoards, runtime.GOMAXPROCS(0))
}
