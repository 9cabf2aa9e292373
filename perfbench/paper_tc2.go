package main

import (
	"fmt"
	"io"
	"time"

	"pricepower/internal/core"
	"pricepower/internal/exp"
	"pricepower/internal/hw"
	"pricepower/internal/metrics"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/workload"
)

// paper-tc2 is the paper's Figs 4–6 evaluation: every Table 6 set under
// PPM, HPM and HL, without a TDP and at 4 W, each on a fresh TC2 platform
// through exp.RunSet — what a reproduction user waits on.
//
// Stresses: the single-board tick (platform, sched, task/HRM, hw power and
// thermal) and the 2-cluster governors (ppm/core/lbt, hpm, hl).
// Bypasses: fleet, federation, core's worker pool (two clusters never
// reach it) and many-cluster LBT.
// Seed: the inputs are the paper's fixed sets; the seed only shuffles the
// order of the 54 runs, so every seed yields the same results and the
// same digest.
var paperTC2Def = workloadDef{
	name:         "paper-tc2",
	why:          "paper Figs 4-6 via exp.RunSet on fresh TC2 boards: stresses the single-board tick and 2-cluster governors, bypasses fleet and federation",
	step:         "one exp.RunSet run (125 virtual s on a fresh TC2 platform)",
	tailQ:        0.9,
	realizations: 5,
	build:        newPaperTC2,
	report:       reportPaperTC2,
}

// Paper published averages the report compares against (§5): Fig 5 mean
// power, and Fig 6's relative miss-rate advantage of PPM under 4 W.
const (
	paperPPMPowerW   = 2.96
	paperPPMvsHPMPct = 34
	paperPPMvsHLPct  = 44
)

type paperRun struct {
	gov string
	set workload.Set
	tdp float64
}

func (r paperRun) key() string { return fmt.Sprintf("%s/%s/%g", r.gov, r.set.Name, r.tdp) }

// paperRuns lists the sweep in canonical order: TDP, set, governor.
func paperRuns() []paperRun {
	var out []paperRun
	for _, tdp := range []float64{0, 4} {
		for _, set := range workload.Sets {
			for _, gov := range exp.GovernorNames {
				out = append(out, paperRun{gov, set, tdp})
			}
		}
	}
	return out
}

type paperTC2 struct {
	order []int                    // seeded permutation of paperRuns()
	runs  []paperRun               // canonical order
	ref   map[string]exp.RunResult // exp.RunSet results, for the traced path to match
}

func newPaperTC2(seed uint64) (runner, error) {
	runs := paperRuns()
	rng := sim.NewRand(seed)
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return &paperTC2{order: order, runs: runs, ref: map[string]exp.RunResult{}}, nil
}

func (w *paperTC2) rep(traced bool, sp *spans) (repResult, error) {
	root := sp.begin("rep", -1)
	defer sp.end(root)
	var rr repResult
	// Set-up: one warm-up evaluation run, so code and data caches are
	// warm before the first timed run.
	t0 := time.Now()
	if _, err := exp.RunSet("PPM", workload.Sets[0], 0, exp.DefaultRunDuration); err != nil {
		return rr, err
	}
	rr.Setup = time.Since(t0)

	var ms0 runtimeSample
	ms0.read()
	obs := &tickObserver{plain: newLogHist(), round: newLogHist(), lbt: newLogHist()}
	results := map[string]exp.RunResult{}
	govWall := map[string]time.Duration{}
	for _, i := range w.order {
		run := w.runs[i]
		var res exp.RunResult
		var err error
		s := time.Now()
		if traced {
			id := sp.begin("tracedRunSet", root)
			res, err = tracedRunSet(run, obs)
			sp.end(id)
		} else {
			id := sp.begin("exp.RunSet", root)
			res, err = exp.RunSet(run.gov, run.set, run.tdp, exp.DefaultRunDuration)
			sp.end(id)
		}
		d := time.Since(s)
		if err != nil {
			return rr, err
		}
		rr.Steps = append(rr.Steps, d)
		rr.Busy += d
		rr.SimSec += (exp.Warmup + exp.DefaultRunDuration).Seconds()
		govWall[run.gov] += d
		results[run.key()] = res
	}
	var ms1 runtimeSample
	ms1.read()
	rr.Heap = settledHeap()

	// Correctness: the traced path must reproduce exp.RunSet bit for bit.
	if traced {
		for _, run := range w.runs {
			want, ok := w.ref[run.key()]
			got := results[run.key()]
			rr.Checks++
			if !ok || !sameRun(got, want) {
				return rr, fmt.Errorf("traced %s: %+v differs from exp.RunSet %+v", run.key(), got, want)
			}
		}
	} else {
		w.ref = results
	}
	miss, power := ppmMeans(results)
	missOf := func(r exp.RunResult) float64 { return r.MissFrac * 100 }
	rr.Info = map[string]float64{
		"ppm_miss": miss, "ppm_power": power,
		"hpm_miss": meanOver(results, "HPM", 4, missOf), "hl_miss": meanOver(results, "HL", 4, missOf),
	}
	rr.Layer = map[string]float64{
		"go.gc_cycles":      float64(ms1.gcCycles - ms0.gcCycles),
		"ppm.miss_pct_4w":   miss,
		"ppm.power_w_notdp": power,
	}
	var migs, trans int
	for _, res := range results {
		migs += res.Migrations
		trans += res.Transitions
	}
	rr.Layer["platform.migrations"] = float64(migs)
	rr.Layer["hw.vf_transitions"] = float64(trans)
	if traced {
		rr.Layer["platform.ticks"] = float64(obs.ticks)
		rr.Layer["core.rounds"] = float64(obs.rounds)
		plain, round, lbt := obs.plain.quantile(0.5), obs.round.quantile(0.5), obs.lbt.quantile(0.5)
		rr.Layer["platform.tick_ns_p50"] = plain
		rr.Layer["ppm.round_ns_p50"] = round - plain
		rr.Layer["lbt.plan_ns_p50"] = lbt - round
	} else {
		rr.Layer["ppm.run_s"] = govWall["PPM"].Seconds()
		rr.Layer["hpm.run_s"] = govWall["HPM"].Seconds()
		rr.Layer["hl.run_s"] = govWall["HL"].Seconds()
	}

	d := newDigest()
	for _, run := range w.runs {
		d = d.runResult(results[run.key()])
	}
	rr.Digest = d
	return rr, nil
}

// ppmMeans returns PPM's mean Fig 6 miss % at 4 W and mean Fig 5 power
// without a TDP.
func ppmMeans(results map[string]exp.RunResult) (missPct, powerW float64) {
	return meanOver(results, "PPM", 4, func(r exp.RunResult) float64 { return r.MissFrac * 100 }),
		meanOver(results, "PPM", 0, func(r exp.RunResult) float64 { return r.AvgPower })
}

// meanOver averages one field of a governor's runs at one TDP over the
// Table 6 sets.
func meanOver(results map[string]exp.RunResult, gov string, tdp float64, field func(exp.RunResult) float64) float64 {
	var sum float64
	for _, set := range workload.Sets {
		sum += field(results[paperRun{gov, set, tdp}.key()])
	}
	return sum / float64(len(workload.Sets))
}

func reportPaperTC2(out io.Writer, reps []repResult, _ map[string]metricOut) {
	in := reps[0].Info
	miss, power, hpm, hl := in["ppm_miss"], in["ppm_power"], in["hpm_miss"], in["hl_miss"]
	vsHPM, vsHL := (1-miss/hpm)*100, (1-miss/hl)*100
	fmt.Fprintf(out, "  ppm_miss_pct = %.2f %% (Fig 6, 4 W; PPM misses %.0f %% less than HPM, paper %d %%: error %+.0f pts; %.0f %% less than HL, paper %d %%: error %+.0f pts)\n",
		miss, vsHPM, paperPPMvsHPMPct, vsHPM-paperPPMvsHPMPct, vsHL, paperPPMvsHLPct, vsHL-paperPPMvsHLPct)
	fmt.Fprintf(out, "  ppm_power_w  = %.3f W (Fig 5, no TDP; paper %.2f W: error %+.1f %%)\n",
		power, paperPPMPowerW, (power/paperPPMPowerW-1)*100)
	fmt.Fprintln(out, "  the simulated TC2 model is otherwise unvalidated against hardware")
}

// tracedRunSet is exp.RunSpecs rebuilt from the same public constructors,
// with a per-tick observer of the benchmark's own attached: it must return the same
// RunResult, bit for bit, as exp.RunSet.
func tracedRunSet(run paperRun, obs *tickObserver) (exp.RunResult, error) {
	specs, err := run.set.Specs(1)
	if err != nil {
		return exp.RunResult{}, err
	}
	p := platform.NewTC2()
	g, err := exp.NewGovernor(run.gov, run.tdp)
	if err != nil {
		return exp.RunResult{}, err
	}
	p.SetGovernor(g)
	exp.PlaceOnLittle(p, specs)
	pr := metrics.NewProbe(p, exp.Warmup)
	pr.Attach()
	thermal := hw.NewThermalModel(p.Chip, nil, 25)
	p.AttachThermal(thermal)

	obs.start(g)
	p.AttachChecker(obs)
	p.Run(exp.Warmup + exp.DefaultRunDuration)
	obs.stop()

	total, cross := p.Migrations()
	trans := 0
	peakT := 25.0
	for i, cl := range p.Chip.Clusters {
		trans += cl.Transitions()
		if t := thermal.Peak(i); t > peakT {
			peakT = t
		}
	}
	return exp.RunResult{
		Governor:        run.gov,
		Set:             run.set.Name,
		MissFrac:        pr.AnyBelowFrac(),
		AvgPower:        pr.AveragePower(),
		Energy:          pr.Energy(),
		Migrations:      total,
		CrossMigrations: cross,
		Transitions:     trans,
		PeakTempC:       peakT,
		Heartbeats:      pr.HeartbeatsDelivered(),
	}, nil
}

// tickObserver is a platform.Checker that times the wall between
// consecutive ticks and classifies each tick of a PPM run by what its
// governor did: nothing (plain), a market round, or a market round plus
// an LBT balance/migrate plan. HPM and HL ticks are counted, not
// classified (their round cadence is internal to them).
type tickObserver struct {
	market            *core.Market
	balance, migrate  int
	last              time.Time
	lastRound         int
	ticks, rounds     int
	plain, round, lbt *logHist
}

func (o *tickObserver) start(g platform.Governor) {
	o.market = nil
	if pg, ok := g.(*ppm.Governor); ok {
		o.market = pg.Market()
		cfg := ppm.DefaultConfig(0)
		o.balance, o.migrate = cfg.BalanceEvery, cfg.MigrateEvery
	}
	o.lastRound = 0
	o.last = time.Now()
}

func (o *tickObserver) stop() {
	if o.market != nil {
		o.rounds += o.market.Round()
	}
}

func (o *tickObserver) CheckTick(_ *platform.Platform, _ sim.Time) {
	now := time.Now()
	ns := float64(now.Sub(o.last).Nanoseconds())
	o.last = now
	o.ticks++
	if o.market == nil {
		return
	}
	r := o.market.Round()
	switch {
	case r == o.lastRound:
		o.plain.add(ns)
	case o.market.State() != core.Emergency && (r%o.balance == 0 || r%o.migrate == 0):
		o.lbt.add(ns)
	default:
		o.round.add(ns)
	}
	o.lastRound = r
}
