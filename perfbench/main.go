// Command perfbench is the repository benchmark. It runs one workload
// in this process, cold: set-up (profile the reference templates, write
// the arrival traces), then a measured phase that runs the workload's
// parts in turn until --seconds have passed, then the parts the measured
// phase did not reach, and the output checks.
//
//	perfbench --workload fed8-replay --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and layer-timed iterations and reports the per-layer metrics.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where attempted and
// failed count the output checks.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"dias/internal/experiments"
	"dias/internal/federation"
	"dias/internal/runner"
	"dias/internal/workload"
)

// Run sizes. A run is a fixed set of parts that all run at least once:
// fed8 replays fedSlices trace slices of fedSliceJobs
// arrivals, figures runs the driver set at figureParts seeds. Averaging
// the modelled outcomes over several parts keeps them steady across
// seeds; the host metrics are medians over iterations. The tiny sizes
// are the smoke check's.
type sizes struct {
	fedSlices, fedSliceJobs int
	figureParts, figureJobs int
}

var (
	fullSizes = sizes{fedSlices: 10, fedSliceJobs: 4000, figureParts: 6, figureJobs: 60}
	tinySizes = sizes{fedSlices: 2, fedSliceJobs: 300, figureParts: 2, figureJobs: 20}
)

// setupRepeats is how often set-up runs; setup_s is the median.
const setupRepeats = 5

// subSeed is the seed of one part of a run: a fed8 trace slice and its
// templates, or one figures pass.
func subSeed(seed int64, part int) int64 { return seed*16 + int64(part) }

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"sim_jobs_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"cpu_s_per_kjob", "s/kjob", "lower"},
	{"alloc_mb_per_kjob", "MB/kjob", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_p95_low_s", "sim_s", "lower"},
	{"sim_p95_high_s", "sim_s", "lower"},
	{"sim_energy_j_per_job", "J/job", "lower"},
	{"sim_low_drop_pct", "%", "lower"},
}

var perLayer = func() []metricDef {
	ds := []metricDef{
		{"analytics.compute_calls_per_job", "count/job", "lower"},
		{"analytics.compute_s", "s", "lower"},
		{"analytics.compute_share", "fraction", "lower"},
		{"federation.route_ns", "ns", "lower"},
		{"federation.route_share", "fraction", "lower"},
		{"federation.peak_in_flight", "count", "lower"},
		{"trace.next_ns", "ns", "lower"},
		{"workload.job_ns", "ns", "lower"},
		{"metrics.add_ns", "ns", "lower"},
		{"engine.residual_s", "s", "lower"},
		{"engine.residual_share", "fraction", "lower"},
		{"host.cpu_util", "cpu_s/s", "higher"},
		{"gc.cycles_per_kjob", "count/kjob", "lower"},
		{"gc.cpu_share", "fraction", "lower"},
		{"alloc.objects_per_job", "count/job", "lower"},
		{"setup.profile_s", "s", "lower"},
		{"setup.trace_write_s", "s", "lower"},
	}
	for _, fd := range figureDrivers {
		ds = append(ds, metricDef{"experiments." + fd.label + "_s", "s", "lower"})
	}
	return append(ds,
		metricDef{"telemetry.export_s", "s", "lower"},
		metricDef{"telemetry.export_mb", "MB", "lower"},
		metricDef{"bench.trace_overhead_pct", "%", "lower"},
	)
}()

var workloadNames = []string{"figures", "fed8-replay", "fed8-replay-sw2"}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	traceMode := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	tiny := flag.Bool("tiny", false, "smoke-check sizes, plus a check that the fed8 set-up mirrors experiments.RunFederationCell")
	workdir := flag.String("workdir", ".bench_build", "directory for the trace file and telemetry exports")
	flag.Parse()
	if *traceMode != 0 && *traceMode != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *traceMode))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, "perfbench-")
	if err != nil {
		fatal(err)
	}
	res, err := run(*name, *seed, *seconds, *traceMode == 1, *tiny, dir)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checks counts output checks; a failed check is a failed operation.
type checks struct{ run, failed int }

func (c *checks) expect(ok bool, format string, args ...any) {
	c.run++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// sample is the host cost of one measured iteration.
type sample struct {
	traced                   bool
	jobs                     float64
	wallSec, cpuSec, runSec  float64
	allocBytes, allocObjects float64
	gcCycles, gcCPUSec       float64
}

func newSample(before, after hostSample, traced bool, jobs int, runSec float64) sample {
	return sample{
		traced:       traced,
		jobs:         float64(jobs),
		wallSec:      after.wall.Sub(before.wall).Seconds(),
		cpuSec:       after.cpuSec - before.cpuSec,
		runSec:       runSec,
		allocBytes:   float64(after.allocBytes - before.allocBytes),
		allocObjects: float64(after.allocObjects - before.allocObjects),
		gcCycles:     float64(after.gcCycles - before.gcCycles),
		gcCPUSec:     after.gcCPUSec - before.gcCPUSec,
	}
}

// medianOf is the median over samples of f.
func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// sum is the total over samples of f.
func sum(ss []sample, f func(sample) float64) float64 {
	var t float64
	for _, s := range ss {
		t += f(s)
	}
	return t
}

// bench is one workload run: its inputs, the outcome of every part and
// the output checks.
type bench struct {
	name       string
	seed       int64
	simWorkers int
	tiny       bool
	in         *inputs
	fr         *fedRun     // fed8 workloads
	figs       *figuresRun // figures
	parts      int

	ck checks
	// The first outcome of every part, and its digest; a part that runs
	// again must reproduce it.
	fedFirst []*fedOutcome
	figFirst []*figuresOutcome
	digests  []string

	setupSec, profileSec, traceSec []float64
	samples                        []sample
	peakRSS                        float64
}

func run(name string, seed int64, seconds float64, traced, tiny bool, dir string) (*result, error) {
	b := &bench{name: name, seed: seed, tiny: tiny}
	sz := fullSizes
	if tiny {
		sz = tinySizes
	}
	switch name {
	case "figures", "fed8-replay":
	case "fed8-replay-sw2":
		b.simWorkers = 2
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}

	// Set-up, repeated; the last inputs are the ones used.
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if b.in, err = makeInputs(seed, sz.fedSlices, sz.fedSliceJobs, dir); err != nil {
			return nil, err
		}
		b.setupSec = append(b.setupSec, time.Since(start).Seconds())
		b.profileSec = append(b.profileSec, b.in.profileSec)
		b.traceSec = append(b.traceSec, b.in.traceSec)
	}

	b.parts = sz.fedSlices
	if name == "figures" {
		b.parts = sz.figureParts
		var err error
		if b.figs, err = newFiguresRun(seed, sz.figureJobs, dir); err != nil {
			return nil, err
		}
	} else {
		b.fr = newFedRun(b.in)
	}
	b.fedFirst = make([]*fedOutcome, b.parts)
	b.figFirst = make([]*figuresOutcome, b.parts)
	b.digests = make([]string, b.parts)

	if err := b.measure(seconds, traced); err != nil {
		return nil, err
	}
	sim, peakInFlight, err := b.completeParts()
	if err != nil {
		return nil, err
	}
	return b.report(traced, sim, peakInFlight), nil
}

// record files the digest of a part's run and reports whether it was the
// part's first; a later run (what names it) must reproduce the digest.
func (b *bench) record(part int, digest, what string) bool {
	if b.digests[part] == "" {
		b.digests[part] = digest
		return true
	}
	b.ck.expect(digest == b.digests[part], "part %d: %s digest %s differs from the first run's %s",
		part, what, digest, b.digests[part])
	return false
}

func (b *bench) recordFed(part int, o *fedOutcome, what string) {
	b.ck.expect(o.completed+o.failed+o.rejected == o.submitted && o.routed == o.submitted,
		"fed8 conservation: %d completed + %d failed + %d rejected, %d routed, of %d submitted",
		o.completed, o.failed, o.rejected, o.routed, o.submitted)
	if b.record(part, o.digest(), what) {
		b.fedFirst[part] = o
	}
}

// recordFigures checks one figures pass and returns its simulated
// arrivals.
func (b *bench) recordFigures(part int, o *figuresOutcome) int {
	acct := account(o.regs)
	b.ck.expect(len(acct.unsampled) == 0, "telemetry did not sample every job of %v", acct.unsampled)
	b.ck.expect(len(acct.unterminated) == 0, "admitted jobs not ended exactly once in %v", acct.unterminated)
	b.ck.expect(acct.arrivals > 0 && acct.arrivals == acct.completed+acct.failed+acct.rejected,
		"figures conservation: %d completed + %d failed + %d rejected of %d arrivals",
		acct.completed, acct.failed, acct.rejected, acct.arrivals)
	o.regs = nil // keep only what the metrics need
	if b.record(part, o.digest, "rerun") {
		b.figFirst[part] = o
	}
	return acct.arrivals
}

// measure runs parts in turn until seconds have passed. Host counters
// bracket each iteration, so the output checks between iterations are
// not measured. In the traced run iterations alternate untraced, traced,
// untraced, ...
func (b *bench) measure(seconds float64, traced bool) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		part, tr := i%b.parts, traced && i%2 == 1
		before := readHost()
		if b.fr != nil {
			o, err := b.fr.replay(part, tr, b.simWorkers)
			if err != nil {
				return err
			}
			b.samples = append(b.samples, newSample(before, readHost(), tr, o.submitted, o.runSec))
			b.recordFed(part, o, "rerun")
		} else {
			o, err := b.figs.iterate(part, tr)
			if err != nil {
				return err
			}
			after := readHost()
			b.samples = append(b.samples, newSample(before, after, tr, b.recordFigures(part, o), 0))
		}
		if time.Now().After(deadline) && (!traced || i >= 1) {
			break
		}
	}
	b.peakRSS = peakRSSMB()
	return nil
}

// completeParts runs, untimed, the parts the measured phase did not
// reach, so the modelled metrics always cover every part, and returns
// those metrics and the peak in-flight job count. fed8 slices replay on
// the serial kernel, two at a time; under sw2 every slice does, and the
// slices the parallel kernel ran must match (the serial oracle).
func (b *bench) completeParts() (map[string]float64, int, error) {
	var sim map[string]float64
	peakInFlight := 0
	if b.fr != nil {
		var todo []int
		var tasks []runner.Task[*fedOutcome]
		for part := range b.fedFirst {
			if b.fedFirst[part] == nil || b.simWorkers > 1 {
				part := part
				todo = append(todo, part)
				tasks = append(tasks, func(context.Context) (*fedOutcome, error) { return b.fr.replay(part, false, 0) })
			}
		}
		outs, err := runner.Map(context.Background(), runner.New(2), tasks)
		if err != nil {
			return nil, 0, err
		}
		for i, o := range outs {
			b.recordFed(todo[i], o, "serial-kernel oracle")
		}
		sim = fedSimMetrics(b.fedFirst)
		for _, o := range b.fedFirst {
			peakInFlight = max(peakInFlight, o.peakInFlight)
		}
		if b.tiny {
			if err := mirrorCheck(&b.ck, b.in, b.fedFirst[0]); err != nil {
				return nil, 0, err
			}
		}
	} else {
		for part := range b.figFirst {
			if b.figFirst[part] != nil {
				continue
			}
			o, err := b.figs.iterate(part, false)
			if err != nil {
				return nil, 0, err
			}
			b.recordFigures(part, o)
		}
		same, err := b.figs.unstableRepeats(0, b.figFirst[0])
		if err != nil {
			return nil, 0, err
		}
		if !same {
			fmt.Println("WARNING: figure 10 output differs between two runs at the same seed " +
				"(workload.SynthesizeGraph ranges over a map); it is outside the checked digest")
		}
		sim = figuresSimMetrics(b.figFirst)
		for _, o := range b.figFirst {
			for _, s := range o.scenarios {
				peakInFlight = max(peakInFlight, s.PeakInFlightJobs)
			}
		}
	}
	for k, v := range sim {
		b.ck.expect(!math.IsNaN(v) && !math.IsInf(v, 0) && v > 0, "modelled metric %s = %g", k, v)
	}
	return sim, peakInFlight, nil
}

// report computes the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run) and prints each with its unit and direction.
func (b *bench) report(traced bool, sim map[string]float64, peakInFlight int) *result {
	var plain, timed []sample
	for _, s := range b.samples {
		if s.traced {
			timed = append(timed, s)
		} else {
			plain = append(plain, s)
		}
	}
	h := sha256.New()
	for _, d := range b.digests {
		io.WriteString(h, d)
	}
	fmt.Printf("workload %s seed %d: %d parts, %d iterations (%d traced), %.0f simulated arrivals in %.2f s, digest %x\n",
		b.name, b.seed, b.parts, len(b.samples), len(timed), sum(b.samples, func(s sample) float64 { return s.jobs }),
		sum(b.samples, func(s sample) float64 { return s.wallSec }), h.Sum(nil)[:8])

	jobsPerSec := func(s sample) float64 { return s.jobs / s.wallSec }
	vals := map[string]float64{}
	defs := endToEnd
	if !traced {
		vals["sim_jobs_per_s"] = medianOf(plain, jobsPerSec)
		vals["setup_s"] = median(b.setupSec)
		vals["cpu_s_per_kjob"] = medianOf(plain, func(s sample) float64 { return 1000 * s.cpuSec / s.jobs })
		vals["alloc_mb_per_kjob"] = medianOf(plain, func(s sample) float64 { return s.allocBytes / 1e3 / s.jobs })
		vals["peak_rss_mb"] = b.peakRSS
		for k, v := range sim {
			vals[k] = v
		}
	} else {
		defs = perLayer
		ratio := func(x, base float64) float64 {
			if base > 0 {
				return x / base
			}
			return 0
		}
		n := float64(len(timed))
		runSec := sum(timed, func(s sample) float64 { return s.runSec })
		var residual float64
		if b.fr != nil {
			ls := b.fr.ls
			vals["analytics.compute_calls_per_job"] = float64(ls.compute.calls.Load()) / sum(timed, func(s sample) float64 { return s.jobs })
			vals["analytics.compute_s"] = ls.compute.sec() / n
			vals["analytics.compute_share"] = ratio(ls.compute.sec(), runSec)
			vals["federation.route_ns"] = ls.route.nsPerCall()
			vals["federation.route_share"] = ratio(ls.route.sec(), runSec)
			vals["trace.next_ns"] = ls.next.nsPerCall()
			vals["workload.job_ns"] = ls.job.nsPerCall()
			vals["metrics.add_ns"] = ls.add.nsPerCall()
			residual = runSec - ls.coveredSec()
		} else {
			// No layer inside the drivers can be wrapped from outside, so
			// all driver time is residual.
			for i, fd := range figureDrivers {
				vals["experiments."+fd.label+"_s"] = b.figs.driverSec[i] / n
				residual += b.figs.driverSec[i]
			}
			runSec = residual
			vals["telemetry.export_s"] = b.figs.exportSec / n
			vals["telemetry.export_mb"] = b.figs.exportMB / n
		}
		vals["engine.residual_s"] = residual / n
		vals["engine.residual_share"] = ratio(residual, runSec)
		vals["federation.peak_in_flight"] = float64(peakInFlight)
		all := func(f func(sample) float64) float64 { return sum(b.samples, f) }
		jobs := all(func(s sample) float64 { return s.jobs })
		cpu := all(func(s sample) float64 { return s.cpuSec })
		vals["host.cpu_util"] = cpu / all(func(s sample) float64 { return s.wallSec })
		vals["gc.cycles_per_kjob"] = 1000 * all(func(s sample) float64 { return s.gcCycles }) / jobs
		vals["gc.cpu_share"] = ratio(all(func(s sample) float64 { return s.gcCPUSec }), cpu)
		vals["alloc.objects_per_job"] = all(func(s sample) float64 { return s.allocObjects }) / jobs
		vals["setup.profile_s"] = median(b.profileSec)
		vals["setup.trace_write_s"] = median(b.traceSec)
		vals["bench.trace_overhead_pct"] = 100 * (1 - medianOf(timed, jobsPerSec)/medianOf(plain, jobsPerSec))
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name] // a layer the workload does not run reads 0
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-34s %14.6g %-10s (%s is better)\n", d.name, v, d.unit, d.better)
	}
	res.Attempted, res.Failed = b.ck.run, b.ck.failed
	res.Correct = b.ck.failed == 0
	return res
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mirrorCheck runs the first fed8 slice through the experiments package's
// own federation builder and requires the identical simulated run, which
// pins textCostModel, diasPolicy and the seed offsets to the program's.
func mirrorCheck(ck *checks, in *inputs, mine *fedOutcome) error {
	var es *workload.EmpiricalStream
	sl := in.slices[0]
	f, err := os.Open(sl.tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := sl.ref.RunFederationCell(experiments.FederationCell{
		Name:           "mirror",
		Jobs:           in.sliceJobs,
		WarmupFraction: fedWarmup,
		Members:        fedMembers,
		Utilization:    fedUtilization,
		Routing:        func(int64) federation.RoutingPolicy { return federation.NewJoinShortestQueue() },
		Arrivals: func([]float64) (workload.Process, error) {
			es, err = workload.NewEmpiricalStream(f)
			return es, err
		},
	})
	if err != nil {
		return err
	}
	if es == nil {
		return errors.New("mirror cell did not replay the trace")
	}
	completed := 0
	for _, c := range res.PerClass {
		completed += c.Jobs
	}
	mineCompleted := 0
	for _, c := range mine.classes {
		mineCompleted += c.Jobs
	}
	ck.expect(res.MakespanSec == mine.makespanSec && res.EnergyJoules == mine.energyJ &&
		res.PeakInFlightJobs == mine.peakInFlight && completed == mineCompleted,
		"fed8 set-up differs from experiments.RunFederationCell: makespan %g vs %g, energy %g vs %g",
		mine.makespanSec, res.MakespanSec, mine.energyJ, res.EnergyJoules)
	return nil
}
