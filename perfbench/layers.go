package main

// Layer timers for the traced run. Each layer is timed from outside, at
// its public entry point: the stage TaskFuncs of the job templates, the
// federation's RoutingPolicy, the replayed arrival Process, the
// JobSource, and the OnRecord hook into the metrics accumulator. Under
// the parallel kernel stage computes run on several goroutines at once,
// so every counter is atomic.

import (
	"math/rand"
	"sync/atomic"
	"time"

	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/federation"
	"dias/internal/workload"
)

// layerTimer accumulates the calls into one layer and the host time
// spent inside them.
type layerTimer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (l *layerTimer) since(start time.Time) {
	l.ns.Add(int64(time.Since(start)))
	l.calls.Add(1)
}

func (l *layerTimer) sec() float64 { return float64(l.ns.Load()) / 1e9 }

// nsPerCall is the mean host time of one call, 0 when never called.
func (l *layerTimer) nsPerCall() float64 {
	if c := l.calls.Load(); c > 0 {
		return float64(l.ns.Load()) / float64(c)
	}
	return 0
}

// layers holds one timer per wrapped layer.
type layers struct {
	compute, route, next, job, add layerTimer
}

// coveredSec is the host time inside every wrapped layer.
func (ls *layers) coveredSec() float64 {
	return ls.compute.sec() + ls.route.sec() + ls.next.sec() + ls.job.sec() + ls.add.sec()
}

// timedTemplate clones a job template with every stage Compute wrapped.
// A nil Compute is the engine's identity and stays nil.
func timedTemplate(j *engine.Job, t *layerTimer) *engine.Job {
	clone := *j
	clone.Stages = append([]engine.Stage(nil), j.Stages...)
	for i := range clone.Stages {
		f := clone.Stages[i].Compute
		if f == nil {
			continue
		}
		clone.Stages[i].Compute = func(in []engine.Record) []engine.Record {
			start := time.Now()
			out := f(in)
			t.since(start)
			return out
		}
	}
	return &clone
}

type timedRouting struct {
	inner federation.RoutingPolicy
	t     *layerTimer
}

func (r timedRouting) Name() string { return r.inner.Name() }

func (r timedRouting) Route(arr federation.Arrival, members []*federation.Member) int {
	start := time.Now()
	i := r.inner.Route(arr, members)
	r.t.since(start)
	return i
}

type timedProcess struct {
	inner workload.Process
	t     *layerTimer
}

func (p timedProcess) Next(rng *rand.Rand) (float64, int) {
	start := time.Now()
	gap, class := p.inner.Next(rng)
	p.t.since(start)
	return gap, class
}

type timedSource struct {
	inner workload.JobSource
	t     *layerTimer
}

func (s timedSource) Job(rng *rand.Rand, class int) (*engine.Job, error) {
	start := time.Now()
	j, err := s.inner.Job(rng, class)
	s.t.since(start)
	return j, err
}

func (s timedSource) Classes() int { return s.inner.Classes() }

func timedOnRecord(f func(int, core.JobRecord), t *layerTimer) func(int, core.JobRecord) {
	return func(member int, rec core.JobRecord) {
		start := time.Now()
		f(member, rec)
		t.since(start)
	}
}
