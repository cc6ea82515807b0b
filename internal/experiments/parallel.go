package experiments

// The parallel-kernel driver measures the conservative parallel kernel
// against its serial oracle on the acceptance scenario: one 8-cluster
// federation cell run twice over — serially, then at several sim-worker
// counts — inside a single figure run. Both modes execute regardless of
// the -sim-workers flag, so the figure text never depends on it: the
// rendered rows carry only deterministic columns and MUST be identical
// across modes (the driver asserts exact equality and fails the figure
// on any divergence, making every run a determinism check). The
// machine-dependent speedup (serial wall-clock over parallel wall-clock)
// lands solely in BENCH_results.json (parallel_speedup), trending-only
// like sim_jobs_per_wall_sec — a 1-core host reports ~1x or below, a
// multi-core host shows the kernel's scaling.

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"dias/internal/metrics"
)

// parallelKernelWorkerCounts is the sim-worker axis of the parallel
// figure (serial is run implicitly as the oracle row).
var parallelKernelWorkerCounts = []int{2, 4, 8}

// ParallelKernelFigure is the parallel-kernel driver's output: the
// serial oracle row followed by one row per sim-worker count, all with
// identical deterministic columns.
type ParallelKernelFigure struct {
	Title string
	Rows  []metrics.FederationScenarioResult
}

// String renders the deterministic columns only; wall-clock speedup is
// machine-dependent and lives solely in the benchmark JSON, keeping
// this text byte-identical at any -workers or -sim-workers setting.
func (f *ParallelKernelFigure) String() string {
	var b strings.Builder
	b.WriteString(f.Title + "\n")
	b.WriteString("Mode            Completed  Makespan [s]  Mean low [s]  Mean high [s]  Waste [%]  Energy [MJ]  PeakInFlight\n")
	for _, r := range f.Rows {
		var completed int
		for _, cs := range r.Overall.PerClass {
			completed += cs.Jobs
		}
		mean := func(k int) float64 {
			if k < len(r.Overall.PerClass) {
				return r.Overall.PerClass[k].MeanResponseSec
			}
			return 0
		}
		fmt.Fprintf(&b, "%-14s %10d  %12.1f  %12.1f  %13.1f  %9.1f  %11.2f  %12d\n",
			r.Name, completed, r.Overall.MakespanSec, mean(0), mean(1),
			r.Overall.ResourceWastePct, r.Overall.EnergyJoules/1e6,
			r.Overall.PeakInFlightJobs)
	}
	b.WriteString("(rows are byte-identical by construction: the parallel kernel reproduces the serial run exactly)\n")
	return b.String()
}

// Scenarios returns the federation-wide rollups with ParallelSpeedup
// stamped on the parallel rows, the rows the benchmark report
// aggregates.
func (f *ParallelKernelFigure) Scenarios() []metrics.ScenarioResult {
	out := make([]metrics.ScenarioResult, len(f.Rows))
	for i, r := range f.Rows {
		out[i] = r.Overall
	}
	return out
}

// ParallelKernel runs the 8-cluster acceptance cell serially and on the
// parallel kernel at each worker count, asserts the results are
// identical, and reports the wall-clock speedup. The runs are
// sequential on purpose: each one should own the whole machine so the
// speedup measures the kernel, not contention with sibling runs.
func ParallelKernel(scale Scale) (*ParallelKernelFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	members := homogeneousMembers(scaleMembers)
	// timed runs one cell on templates built for it alone, outside the
	// timed region: the templates cache their stage outputs, so a cell
	// reusing an earlier cell's templates would start warm.
	timed := func(name string, simWorkers int) (metrics.FederationScenarioResult, float64, error) {
		variants, rates, err := fedWorkload(scale, scaleMembers, scaleUtilization)
		if err != nil {
			return metrics.FederationScenarioResult{}, 0, err
		}
		cellScale := scale
		cellScale.SimWorkers = simWorkers
		sc := fedScenario{
			name:     name,
			members:  members,
			policy:   fedPolicyFactory{name: name, make: scaleRoutingSet()[0].make}, // jsq
			rates:    scaleRates(rates, capacityFactor(members)),
			variants: variants,
			scale:    cellScale,
		}
		start := time.Now()
		res, err := sc.run()
		return res, time.Since(start).Seconds(), err
	}
	serial, serialWall, err := timed("serial", 1)
	if err != nil {
		return nil, err
	}
	rows := []metrics.FederationScenarioResult{serial}
	for _, w := range parallelKernelWorkerCounts {
		name := fmt.Sprintf("simworkers-%d", w)
		par, parWall, err := timed(name, w)
		if err != nil {
			return nil, err
		}
		// The oracle check: everything but the row name must match the
		// serial run exactly. A mismatch is a kernel bug, not noise.
		want := serial
		want.Name = par.Name
		want.Overall.Name = par.Overall.Name
		if !reflect.DeepEqual(par, want) {
			return nil, fmt.Errorf(
				"experiments: parallel kernel diverged from serial at %d sim-workers:\nserial:   %+v\nparallel: %+v",
				w, serial.Overall, par.Overall)
		}
		if parWall > 0 {
			par.Overall.ParallelSpeedup = serialWall / parWall
		}
		rows = append(rows, par)
	}
	return &ParallelKernelFigure{
		Title: fmt.Sprintf(
			"Parallel kernel: serial oracle vs conservative parallel run (%d clusters, %.0f%% per-cluster load, JSQ)",
			scaleMembers, 100*scaleUtilization),
		Rows: rows,
	}, nil
}
