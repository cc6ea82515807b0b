package main

// The fed8-replay workloads: one 8-member federation per iteration, the
// DiAS policy on every member, JSQ routing, arrivals replayed from the
// trace file written at set-up.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dias/internal/core"
	"dias/internal/dfs"
	"dias/internal/engine"
	"dias/internal/experiments"
	"dias/internal/federation"
	"dias/internal/metrics"
	"dias/internal/trace"
	"dias/internal/workload"
)

const (
	fedMembers     = 8
	fedUtilization = 0.7 // nominal per-cluster load
	fedGammaCV     = 3.5
	fedWarmup      = 0.1
)

// textCostModel mirrors the experiments package's text cost model, the
// one the reference templates are profiled under, so the calibrated
// rates load every member at fedUtilization. The smoke check verifies the
// mirror: the same cell run through experiments.RunFederationCell must
// give the identical makespan and energy.
func textCostModel() engine.CostModel {
	return engine.CostModel{
		TaskOverheadSec:     0.3,
		PerRecordSec:        0.1,
		SetupBaseSec:        2,
		SetupPerByte:        3e-9,
		ShuffleBaseSec:      1,
		ShufflePerRecordSec: 1e-4,
		NoiseSigma:          0.06,
	}
}

// diasPolicy is the federation figures' member policy: DA(0,20) plus
// sprinting under a finite replenishing budget.
func diasPolicy() core.Config {
	return core.PolicyDiAS([]float64{0.2, 0}, core.SprintPolicy{
		TimeoutSec:     []float64{60, 0},
		BudgetJoules:   22e3,
		DrainWatts:     900,
		ReplenishWatts: 90,
	})
}

// inputs is what set-up produces: one profiled reference workload and
// one arrival trace file per slice, each from the slice's own seed, so
// averaging over slices also averages over job templates.
type inputs struct {
	slices     []slice
	sliceJobs  int
	profileSec float64
	traceSec   float64
}

type slice struct {
	ref       *experiments.ReferenceWorkload
	tracePath string
}

// makeInputs profiles the reference templates and writes, per slice, a
// gamma CV 3.5 arrival trace of sliceJobs records at 70% load of an
// 8-member federation.
func makeInputs(seed int64, slices, sliceJobs int, dir string) (*inputs, error) {
	in := &inputs{sliceJobs: sliceJobs}
	for i := 0; i < slices; i++ {
		start := time.Now()
		ref, err := experiments.NewReferenceWorkload(subSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("profiling reference workload: %w", err)
		}
		profiled := time.Now()
		// Homogeneous default members: the federation's capacity is
		// fedMembers times one default cluster's.
		proc, err := workload.NewGamma(ref.Rates(fedMembers*fedUtilization), fedGammaCV)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("arrivals-%d.trace", i))
		if err := writeTrace(path, proc, rand.New(rand.NewSource(ref.Seed+31)), sliceJobs); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		in.slices = append(in.slices, slice{ref: ref, tracePath: path})
		in.profileSec += profiled.Sub(start).Seconds()
		in.traceSec += time.Since(profiled).Seconds()
	}
	return in, nil
}

// writeTrace writes n arrivals of proc as a trace file.
func writeTrace(path string, proc workload.Process, rng *rand.Rand, n int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sw, err := trace.NewStreamWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	var at float64
	for i := 0; i < n; i++ {
		gap, class := proc.Next(rng)
		at += gap
		if err := sw.Write(trace.Rec{At: at, Class: class, Home: -1}); err != nil {
			f.Close()
			return err
		}
	}
	if err := sw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// variantSource serves a uniformly random data-home variant of the class
// template per arrival; variant v is homed on member v % fedMembers.
type variantSource [][]*engine.Job

func (s variantSource) Job(rng *rand.Rand, class int) (*engine.Job, error) {
	if class < 0 || class >= len(s) {
		return nil, fmt.Errorf("class %d out of range %d", class, len(s))
	}
	v := s[class]
	return v[rng.Intn(len(v))], nil
}

func (s variantSource) Classes() int { return len(s) }

// variants clones each template into fedMembers data-home variants.
func variants(templates ...*engine.Job) variantSource {
	out := make(variantSource, len(templates))
	for k, base := range templates {
		for v := 0; v < fedMembers; v++ {
			clone := *base
			clone.Name = fmt.Sprintf("%s-%d", base.Name, v)
			clone.InputPath = fmt.Sprintf("/fed/%s-%d", base.Name, v)
			out[k] = append(out[k], &clone)
		}
	}
	return out
}

// fedOutcome is the simulated result of one fed8 iteration.
type fedOutcome struct {
	submitted                      int
	completed, failed, rejected    int
	routed                         int
	peakInFlight                   int
	makespanSec, energyJ, wasteSec float64
	classes                        []metrics.ClassStats
	runSec                         float64 // host wall inside Federation.Run
}

// digest fingerprints every simulated field, so two outcomes with equal
// digests are the same simulated run.
func (o *fedOutcome) digest() string {
	h := sha256.New()
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(h, "%d %d %d %d %d %d %s %s %s\n", o.submitted, o.completed, o.failed,
		o.rejected, o.routed, o.peakInFlight, f(o.makespanSec), f(o.energyJ), f(o.wasteSec))
	for _, c := range o.classes {
		fmt.Fprintf(h, "%d %d %s %s %s %s %s %s %d %d %d\n", c.Class, c.Jobs,
			f(c.MeanResponseSec), f(c.P95ResponseSec), f(c.P99ResponseSec), f(c.MeanQueueSec),
			f(c.MeanExecSec), f(c.MeanEffectiveDrop), c.Evictions, c.FailedJobs, c.RejectedJobs)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// fedRun holds one fed8 workload's inputs, its plain and layer-timed
// job variants, and the layer timers.
type fedRun struct {
	in           *inputs
	plain, timed []variantSource // per slice
	ls           *layers
}

func newFedRun(in *inputs) *fedRun {
	r := &fedRun{in: in, ls: &layers{}}
	for _, sl := range in.slices {
		low, high := sl.ref.LowJob, sl.ref.HighJob
		r.plain = append(r.plain, variants(low, high))
		r.timed = append(r.timed, variants(timedTemplate(low, &r.ls.compute), timedTemplate(high, &r.ls.compute)))
	}
	return r
}

// replay runs one trace slice through a fresh federation. Engine memos
// live in the engines, so every replay starts them empty.
func (r *fedRun) replay(i int, traced bool, simWorkers int) (*fedOutcome, error) {
	in, sl := r.in, r.in.slices[i]
	acc := metrics.NewBoundedFederationAccumulator(fedMembers, 2, in.sliceJobs, fedWarmup)
	out := &fedOutcome{submitted: in.sliceJobs}
	onRecord := func(member int, rec core.JobRecord) {
		switch {
		case rec.Rejected:
			out.rejected++
		case rec.Failed:
			out.failed++
		default:
			out.completed++
		}
		acc.Add(member, rec)
	}
	var routing federation.RoutingPolicy = federation.NewJoinShortestQueue()
	tmpl := r.plain[i]
	source := workload.JobSource(tmpl)
	if traced {
		tmpl = r.timed[i]
		routing = timedRouting{routing, &r.ls.route}
		source = timedSource{tmpl, &r.ls.job}
		onRecord = timedOnRecord(onRecord, &r.ls.add)
	}
	members := make([]federation.MemberSpec, fedMembers)
	for m := range members {
		members[m] = federation.MemberSpec{Cost: textCostModel()}
	}
	data := dfs.DefaultConfig()
	fed, err := federation.New(federation.Config{
		Members:        members,
		Policy:         diasPolicy(),
		Routing:        routing,
		Data:           &data,
		Seed:           sl.ref.Seed,
		OnRecord:       onRecord,
		DiscardRecords: true,
		SimWorkers:     simWorkers,
	})
	if err != nil {
		return nil, err
	}
	for _, vars := range tmpl {
		for v, job := range vars {
			if err := fed.RegisterInput(job, v%fedMembers); err != nil {
				return nil, err
			}
		}
	}
	f, err := os.Open(sl.tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	es, err := workload.NewEmpiricalStream(f)
	if err != nil {
		return nil, err
	}
	var proc workload.Process = es
	if traced {
		proc = timedProcess{es, &r.ls.next}
	}
	if err := fed.SubmitStream(proc, source, in.sliceJobs, sl.ref.Seed+7); err != nil {
		return nil, err
	}
	start := time.Now()
	fed.Run()
	out.runSec = time.Since(start).Seconds()
	if es.Count() != in.sliceJobs {
		return nil, errors.New("trace replay did not consume exactly the submitted arrivals")
	}

	out.makespanSec = fed.Sim().Now().Seconds()
	for _, n := range fed.Routed() {
		out.routed += n
	}
	for _, m := range fed.Members() {
		out.energyJ += m.Cluster.EnergyJoules()
		out.wasteSec += m.Engine.WastedSlotSeconds()
	}
	out.peakInFlight = fed.PeakInFlight()
	out.classes = acc.OverallClasses()
	return out, nil
}

// fedSimMetrics are the modelled outcomes of a fed8 run, exact per seed:
// per-class P95 and low-class drop averaged over the slices, energy per
// completed job over all of them.
func fedSimMetrics(slices []*fedOutcome) map[string]float64 {
	var p95Low, p95High, drop, energy float64
	var completed int
	for _, o := range slices {
		p95Low += o.classes[0].P95ResponseSec
		p95High += o.classes[1].P95ResponseSec
		drop += o.classes[0].MeanEffectiveDrop
		energy += o.energyJ
		completed += o.completed
	}
	n := float64(len(slices))
	return map[string]float64{
		"sim_p95_low_s":        p95Low / n,
		"sim_p95_high_s":       p95High / n,
		"sim_energy_j_per_job": energy / float64(completed),
		"sim_low_drop_pct":     100 * drop / n,
	}
}
