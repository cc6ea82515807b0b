// dias-sim runs one configurable two-priority scenario through the
// simulated DiAS stack and prints per-class latencies, waste and energy.
//
//	dias-sim -policy dias -theta 0.2 -jobs 300 -util 0.8 -ratio 9 -sprint-timeout 0
//	dias-sim -policy da -bursty            # MMPP2 arrivals, same mean rates
//	dias-sim -policy np -mttf 1800 -mttr 60  # inject node failures
//	dias-sim -policy adaptive -target 120  # closed-loop deflation
//	dias-sim -cpuprofile cpu.prof -memprofile mem.prof  # pprof profiles of the run
//
// Policies: p (preemptive), np, da (approximation only), dias
// (approximation + sprinting), adaptive (closed-loop da).
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"dias"
	"dias/internal/analytics"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/metrics"
	"dias/internal/mmap"
	"dias/internal/profiling"
	"dias/internal/workload"
)

func main() {
	var opt options
	flag.StringVar(&opt.policy, "policy", "dias", "p | np | da | dias | adaptive")
	flag.Float64Var(&opt.theta, "theta", 0.2, "low-priority map-task drop ratio")
	flag.IntVar(&opt.jobs, "jobs", 300, "number of arrivals")
	flag.Float64Var(&opt.util, "util", 0.8, "target system utilization")
	flag.Float64Var(&opt.ratio, "ratio", 9, "low:high arrival ratio (low weight; high is 1)")
	flag.Float64Var(&opt.sprintTimeout, "sprint-timeout", 0, "high-priority sprint timeout [s]")
	flag.Float64Var(&opt.budget, "budget", math.Inf(1), "sprint budget [J] (default unlimited)")
	flag.BoolVar(&opt.bursty, "bursty", false, "MMPP2 arrivals instead of Poisson (same mean rates)")
	flag.Float64Var(&opt.mttf, "mttf", 0, "per-node mean time to failure [s] (0 = no failures)")
	flag.Float64Var(&opt.mttr, "mttr", 60, "mean node repair time [s]")
	flag.Float64Var(&opt.target, "target", 0, "adaptive policy: low-priority mean response target [s] (0 = 3x solo exec)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed")
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dias-sim:", err)
		os.Exit(2)
	}
	err = run(opt)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dias-sim:", err)
		os.Exit(1)
	}
}

// options collects the CLI flags.
type options struct {
	policy                string
	theta, util, ratio    float64
	sprintTimeout, budget float64
	mttf, mttr, target    float64
	jobs                  int
	bursty                bool
	seed                  int64
}

func buildJob(name string, seed int64, posts int, size int64) (*engine.Job, error) {
	cfg := workload.DefaultCorpusConfig()
	cfg.PostsPerPartition = posts
	rng := rand.New(rand.NewSource(seed))
	corpus, err := workload.SynthesizeCorpus(rng, cfg)
	if err != nil {
		return nil, err
	}
	return analytics.WordPopularityJob(name, corpus, 10, size), nil
}

func policyConfig(name string, theta, sprintTimeout, budget float64) (core.Config, error) {
	sprint := core.SprintPolicy{
		TimeoutSec:     []float64{-1, sprintTimeout},
		BudgetJoules:   budget,
		DrainWatts:     900,
		ReplenishWatts: 90,
	}
	if math.IsInf(budget, 1) {
		sprint.DrainWatts = 0
		sprint.ReplenishWatts = 0
	}
	switch name {
	case "p":
		return core.PolicyP(2), nil
	case "np":
		return core.PolicyNP(2), nil
	case "da":
		return core.PolicyDA([]float64{theta, 0}), nil
	case "dias":
		return core.PolicyDiAS([]float64{theta, 0}, sprint), nil
	default:
		return core.Config{}, fmt.Errorf("unknown policy %q", name)
	}
}

func run(opt options) error {
	adaptive := opt.policy == "adaptive"
	var cfg core.Config
	if adaptive {
		cfg = core.PolicyNP(2) // the deflator is installed below
	} else {
		var err error
		cfg, err = policyConfig(opt.policy, opt.theta, opt.sprintTimeout, opt.budget)
		if err != nil {
			return err
		}
	}
	lowJob, err := buildJob("low", opt.seed+1, 50, 1117<<20)
	if err != nil {
		return err
	}
	highJob, err := buildJob("high", opt.seed+2, 21, 473<<20)
	if err != nil {
		return err
	}
	// Profile solo execution to calibrate the arrival rate.
	exec := func(job *engine.Job) (float64, error) {
		st, err := dias.NewStack(dias.StackConfig{Policy: core.PolicyNP(1), Seed: opt.seed})
		if err != nil {
			return 0, err
		}
		st.SubmitAt(0, 0, job)
		st.Run()
		return st.Records()[0].ExecSec, nil
	}
	lowExec, err := exec(lowJob)
	if err != nil {
		return err
	}
	highExec, err := exec(highJob)
	if err != nil {
		return err
	}
	fracLow := opt.ratio / (opt.ratio + 1)
	totalRate, err := workload.CalibrateTotalRate(
		[]float64{lowExec, highExec}, []float64{fracLow, 1 - fracLow}, opt.util)
	if err != nil {
		return err
	}
	rates, err := workload.MixFromRatio([]float64{opt.ratio, 1}, totalRate)
	if err != nil {
		return err
	}

	stack, err := dias.NewStack(dias.StackConfig{Policy: cfg, Seed: opt.seed})
	if err != nil {
		return err
	}
	var ctl *core.AdaptiveDeflator
	if adaptive {
		target := opt.target
		if target <= 0 {
			target = 3 * lowExec
		}
		ctl, err = core.NewAdaptiveDeflator(stack.Sim, core.AdaptiveConfig{
			TargetResponseSec: []float64{target, 0},
			MaxTheta:          []float64{0.4, 0},
			Window:            8,
			Step:              0.05,
			Hysteresis:        0.6,
		})
		if err != nil {
			return err
		}
		stack.Scheduler, err = core.New(stack.Sim, stack.Cluster, stack.Engine, core.Config{
			Classes: 2, Deflator: ctl,
		})
		if err != nil {
			return err
		}
	}
	if opt.mttf > 0 {
		// Horizon sized to the expected arrival window plus drain slack.
		horizon := float64(opt.jobs)/totalRate*1.1 + 300
		if err := stack.InjectFailures(engine.FailureConfig{
			MTTFSec: opt.mttf, MTTRSec: opt.mttr, HorizonSec: horizon, Seed: opt.seed + 17,
		}); err != nil {
			return err
		}
	}

	var proc workload.Process
	if opt.bursty {
		m, err := mmap.MMPP2(totalRate/40, totalRate/16,
			scaleRates(rates, 0.4), scaleRates(rates, 2.5))
		if err != nil {
			return err
		}
		src, err := m.NewSource(rand.New(rand.NewSource(opt.seed + 3)))
		if err != nil {
			return err
		}
		proc = src
	} else {
		mix, err := workload.NewPoissonMix(rates)
		if err != nil {
			return err
		}
		proc = mix
	}
	tmpl := workload.FixedJobs{lowJob, highJob}
	if err := stack.SubmitStream(proc, tmpl, opt.jobs, opt.seed+9); err != nil {
		return err
	}
	stack.Run()

	cs := metrics.Aggregate(stack.Records(), 2, 0.1)
	fmt.Printf("policy=%s theta=%.2f util=%.2f ratio=%.0f:1 jobs=%d bursty=%v mttf=%.0fs (solo exec: low %.1fs, high %.1fs)\n",
		opt.policy, opt.theta, opt.util, opt.ratio, opt.jobs, opt.bursty, opt.mttf, lowExec, highExec)
	for k := 1; k >= 0; k-- {
		label := [2]string{"low ", "high"}[k]
		fmt.Printf("  %s mean %8.1fs  p95 %8.1fs  queue %8.1fs  exec %6.1fs  evictions %d\n",
			label, cs[k].MeanResponseSec, cs[k].P95ResponseSec, cs[k].MeanQueueSec, cs[k].MeanExecSec, cs[k].Evictions)
	}
	wasted := stack.Engine.WastedSlotSeconds()
	total := stack.Cluster.BusySlotSeconds()
	wastePct := 0.0
	if total > 0 {
		wastePct = 100 * wasted / total
	}
	sd := metrics.Slowdowns(stack.Records(), 2, 0.1)
	fmt.Printf("  slowdown: low %.2fx, high %.2fx (low/high ratio %.2f; §2.1 reports ~3 under P)\n",
		sd[0].MeanSlowdown, sd[1].MeanSlowdown, metrics.SlowdownRatio(sd))
	fmt.Printf("  waste %.1f%%  energy %.0f kJ  makespan %.0f s\n",
		wastePct, stack.Cluster.EnergyJoules()/1000, stack.Sim.Now().Seconds())
	if opt.mttf > 0 {
		fmt.Printf("  failures: %d task retries, %.0f slot-s lost\n",
			stack.Engine.TasksRetried(), stack.Engine.FailureLostSlotSeconds())
	}
	if ctl != nil {
		fmt.Printf("  adaptive: %d decisions, theta now %.2f, mean drop %.1f%%\n",
			len(ctl.History()), ctl.Theta(0), 100*cs[0].MeanEffectiveDrop)
	}
	return nil
}

// scaleRates multiplies every rate by f.
func scaleRates(rates []float64, f float64) []float64 {
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = r * f
	}
	return out
}
