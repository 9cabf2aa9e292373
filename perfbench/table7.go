package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"pricepower/internal/exp"
	"pricepower/internal/lbt"
)

// table7-256 is the paper's Table 7 market at its largest 8-task
// configuration: V=256 clusters × C=8 cores × T=8 tasks per core (16,384
// task agents) built by exp.BuildScaledMarket, with the worker pool on.
// One step is one 190 ms migration period of the paper's controller: six
// Market.StepOnce bid rounds (31.7 ms bid period), then
// Planner.PlanForCluster(0, lbt.Migrate) with its move applied through
// Market.MoveTask. The report also gives the round and the LBT
// invocation separately, against their own periods (Table 7).
//
// Stresses: core's agents and worker pool and lbt's planner at
// many-cluster scale — the only workload where either is more than tiny.
// Bypasses: the platform tick, sched, task, hw, fleet and federation.
// Seed: picks the market's task priorities and demands
// (BuildScaledMarket's seed); sizes are fixed, so the work is too.
var table7Def = workloadDef{
	name:         "table7-256",
	why:          "paper Table 7 market at V=256 C=8 T=8 with the worker pool, 6 bid rounds plus one LBT plan per step: stresses core and lbt at scale, bypasses the tick and fleet",
	step:         "one 190 ms migration period: 6 Market.StepOnce rounds + PlanForCluster + MoveTask",
	tailQ:        0.9,
	realizations: 10,
	build:        newTable7,
	report:       reportTable7,
}

const (
	table7Periods   = 20 // timed migration periods per repeat
	table7LBTEvery  = 6  // bid rounds per migration period: 190 ms / 31.7 ms
	bidPeriodMs     = 31.7
	migratePeriodMs = 190
)

var table7Cfg = exp.Table7Config{V: 256, C: 8, T: 8}

type table7 struct{ seed uint64 }

func newTable7(seed uint64) (runner, error) { return &table7{seed: seed}, nil }

func (w *table7) rep(traced bool, sp *spans) (repResult, error) {
	root := sp.begin("rep", -1)
	defer sp.end(root)
	var rr repResult

	t0 := time.Now()
	id := sp.begin("exp.BuildScaledMarket", root)
	m, planner := exp.BuildScaledMarket(table7Cfg, w.seed)
	m.SetParallel(true)
	sp.end(id)
	moves := 0
	var rounds, plans []time.Duration
	// period runs one migration period, timing each call.
	period := func(timed bool) time.Duration {
		var busy time.Duration
		for r := 0; r < table7LBTEvery; r++ {
			id := sp.begin("core.Market.StepOnce", root)
			s := time.Now()
			m.StepOnce()
			d := time.Since(s)
			sp.end(id)
			busy += d
			if timed {
				rounds = append(rounds, d)
			}
		}
		id := sp.begin("lbt.Planner.PlanForCluster", root)
		s := time.Now()
		mv := planner.PlanForCluster(0, lbt.Migrate)
		d := time.Since(s)
		sp.end(id)
		busy += d
		if timed {
			plans = append(plans, d)
		}
		if mv != nil {
			id := sp.begin("core.Market.MoveTask", root)
			s := time.Now()
			m.MoveTask(mv.Agent, mv.ToCore)
			busy += time.Since(s)
			sp.end(id)
			moves++
		}
		return busy
	}
	period(false) // set-up: one warm-up period
	rr.Setup = time.Since(t0)

	var ms0, ms1 runtimeSample
	ms0.read()
	for p := 0; p < table7Periods; p++ {
		d := period(true)
		rr.Steps = append(rr.Steps, d)
		rr.Busy += d
	}
	ms1.read()
	rr.SimSec = table7Periods * migratePeriodMs / 1000.0
	rr.Heap = settledHeap()

	// Correctness: the market conserves its task agents and its state
	// stays finite; the digest (compared across repeats) pins the whole
	// trajectory, worker pool included.
	tasks := 0
	for _, v := range m.Clusters {
		tasks += v.TaskCount()
	}
	want := table7Cfg.V * table7Cfg.C * table7Cfg.T
	rr.Checks += 2
	if err := checkf(tasks == want, "market holds %d task agents, want %d", tasks, want); err != nil {
		return rr, err
	}
	if err := checkf(!math.IsNaN(m.Allowance()) && !math.IsNaN(m.Power()), "market state not finite"); err != nil {
		return rr, err
	}
	rr.Digest = newDigest().ints(moves).market(m)

	rr.Sub = map[string][]time.Duration{"round": rounds, "lbt": plans}
	rr.Layer = map[string]float64{
		"core.tasks":               float64(tasks),
		"lbt.moves_applied":        float64(moves),
		"go.alloc_bytes_per_round": float64(ms1.allocBytes-ms0.allocBytes) / float64(len(rounds)),
		"go.gc_cycles":             float64(ms1.gcCycles - ms0.gcCycles),
	}
	if traced {
		roundMs, planMs := durs(rounds, ms), durs(plans, ms)
		rr.Layer["core.round_ms_p50"] = median(roundMs)
		rr.Layer["core.round_ms_p99"] = quantile(roundMs, 0.99)
		rr.Layer["lbt.plan_ms_p50"] = median(planMs)
		rr.Layer["lbt.plan_ms_p90"] = quantile(planMs, 0.9)
	}
	return rr, nil
}

func reportTable7(out io.Writer, reps []repResult, e map[string]metricOut) {
	pooled := func(name string) []float64 {
		var xs []float64
		for _, rr := range reps {
			xs = append(xs, durs(rr.Sub[name], ms)...)
		}
		return xs
	}
	round, plan := pooled("round"), pooled("lbt")
	r50, r99 := median(round), quantile(round, 0.99)
	l50, l90 := median(plan), quantile(plan, 0.9)
	fmt.Fprintf(out, "  period_ms_p50 = %.3f ms, period_ms_p90 = %.3f ms (%.2f %% / %.2f %% of the %d ms migration period)\n",
		e["step_ms_p50"].Value, e["step_ms_tail"].Value, e["step_ms_p50"].Value/migratePeriodMs*100,
		e["step_ms_tail"].Value/migratePeriodMs*100, migratePeriodMs)
	fmt.Fprintf(out, "  round_ms_p50 = %.4f ms, round_ms_p99 = %.4f ms over %d rounds (%.2f %% / %.2f %% of the %.1f ms bid period)\n",
		r50, r99, len(round), r50/bidPeriodMs*100, r99/bidPeriodMs*100, bidPeriodMs)
	fmt.Fprintf(out, "  lbt_ms_p50 = %.3f ms, lbt_ms_p90 = %.3f ms over %d invocations (%.2f %% / %.2f %% of the %d ms migration period; Table 7)\n",
		l50, l90, len(plan), l50/migratePeriodMs*100, l90/migratePeriodMs*100, migratePeriodMs)
}
