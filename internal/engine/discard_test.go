package engine

import (
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
)

// discardTemplates builds a skewed map/reduce template and a single-stage
// template whose Result stage reads the job input (so it is memoized),
// both counting their Result-stage Compute calls in calls. Partition 0 is
// large enough to straggle.
func discardTemplates(calls *atomic.Int32) []*Job {
	input := make(Dataset, 6)
	for p := range input {
		n := 4
		if p == 0 {
			n = 60
		}
		for r := 0; r < n; r++ {
			input[p] = append(input[p], Record{Key: "w" + strconv.Itoa((p+r)%7), Value: float64(p*100 + r)})
		}
	}
	counted := func(f TaskFunc) TaskFunc {
		return func(in []Record) []Record {
			calls.Add(1)
			return f(in)
		}
	}
	return []*Job{
		{
			Name: "map-reduce", Input: input, SizeBytes: 1 << 20,
			Stages: []Stage{
				{Name: "map", Kind: ShuffleMap, OutPartitions: 3, Compute: scaleMap},
				{Name: "reduce", Kind: Result, Deps: []int{0}, Compute: counted(sumByKey)},
			},
		},
		{
			Name: "map-only", Input: input, SizeBytes: 1 << 20,
			Stages: []Stage{{Name: "map", Kind: Result, Compute: counted(scaleMap)}},
		},
	}
}

// runDiscard submits every template under three drop vectors on a fresh
// noisy 2-slot engine configured by setup, and returns the results in
// completion order plus the engine.
func runDiscard(t *testing.T, setup func(*Engine) error, discard bool, calls *atomic.Int32) ([]JobResult, *Engine) {
	t.Helper()
	rig := newRig(t, 2, CostModel{TaskOverheadSec: 0.5, PerRecordSec: 0.1, NoiseSigma: 0.3})
	if setup != nil {
		if err := setup(rig.eng); err != nil {
			t.Fatal(err)
		}
	}
	var out []JobResult
	for _, job := range discardTemplates(calls) {
		for _, d := range [][]float64{nil, {0.5}, {0, 0.5}} {
			if _, err := rig.eng.Submit(job, SubmitOptions{
				DropRatios:    d,
				DiscardOutput: discard,
				OnComplete:    func(r JobResult) { out = append(out, r) },
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rig.sim.Run()
	if len(out) != 6 {
		t.Fatalf("%d of 6 jobs completed", len(out))
	}
	return out, rig.eng
}

// TestDiscardOutputSkipsResultCompute: with DiscardOutput the Result
// stage's Compute never runs, Output is nil, and every other JobResult
// field equals a kept-output run — plain, with speculation and with task
// faults.
func TestDiscardOutputSkipsResultCompute(t *testing.T) {
	configs := []struct {
		name  string
		setup func(*Engine) error
	}{
		{"plain", nil},
		{"speculation", func(e *Engine) error {
			return e.SetSpeculation(SpeculationConfig{Enabled: true, Multiplier: 1.5, MinCompleted: 2})
		}},
		{"task-faults", func(e *Engine) error {
			return e.SetTaskFaults(&scriptedFaults{faults: map[[2]int][]TaskFault{
				{0, 1}: {{FailAfterFrac: 0.5}},
				{1, 0}: {{FailAfterFrac: 0.3}, {FailAfterFrac: 0.6}},
			}}, 4)
		}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			var keptCalls, discardCalls atomic.Int32
			kept, keptEng := runDiscard(t, c.setup, false, &keptCalls)
			discarded, discardEng := runDiscard(t, c.setup, true, &discardCalls)
			if n := discardCalls.Load(); n != 0 {
				t.Fatalf("%d Result-stage computes under DiscardOutput, want 0", n)
			}
			if keptCalls.Load() == 0 {
				t.Fatal("kept-output run never computed the Result stage")
			}
			retries := 0
			for i := range kept {
				if len(kept[i].Output) == 0 {
					t.Fatalf("job %d: kept-output run delivered no Output", i)
				}
				if discarded[i].Output != nil {
					t.Fatalf("job %d: %d output records under DiscardOutput", i, len(discarded[i].Output))
				}
				kept[i].Output = nil
				retries += kept[i].TaskRetries
			}
			if !reflect.DeepEqual(kept, discarded) {
				t.Fatalf("results differ apart from Output:\nkept      %+v\ndiscarded %+v", kept, discarded)
			}
			if keptEng.SpeculativeLaunched() != discardEng.SpeculativeLaunched() ||
				keptEng.SpeculativeDiscarded() != discardEng.SpeculativeDiscarded() {
				t.Fatal("speculation counters differ")
			}
			switch c.name {
			case "speculation":
				if keptEng.SpeculativeLaunched() == 0 {
					t.Fatal("no backup launched: the speculation path was not exercised")
				}
			case "task-faults":
				if retries == 0 {
					t.Fatal("no task retried: the fault path was not exercised")
				}
			}
		})
	}
}

// TestDiscardOutputLeavesKeptOutputsIntact: discarding submissions do not
// disturb the Output of kept ones that share their template and reuse
// their pooled executions.
func TestDiscardOutputLeavesKeptOutputsIntact(t *testing.T) {
	var calls atomic.Int32
	job := discardTemplates(&calls)[0]
	run := func(discardEven bool) []JobResult {
		rig := newRig(t, 2, flatCost(1))
		var got []JobResult
		for i := 0; i < 4; i++ {
			if _, err := rig.eng.Submit(job, SubmitOptions{
				DiscardOutput: discardEven && i%2 == 0,
				OnComplete:    func(r JobResult) { got = append(got, r) },
			}); err != nil {
				t.Fatal(err)
			}
			rig.sim.Run()
		}
		return got
	}
	mixed, kept := run(true), run(false)
	for i := 1; i < len(kept); i += 2 {
		if len(kept[i].Output) == 0 || !reflect.DeepEqual(mixed[i].Output, kept[i].Output) {
			t.Fatalf("run %d: output %v, want %v", i, mixed[i].Output, kept[i].Output)
		}
	}
}
