package federation_test

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/federation"
	"dias/internal/workload"
)

// countedJob is a map/reduce template whose map stage counts its Compute
// calls per input partition in calls and whose reduce stage counts its
// calls in sums.
func countedJob(name string, parts int, calls []atomic.Int32, sums *atomic.Int32) *engine.Job {
	input := make(engine.Dataset, parts)
	index := make(map[*engine.Record]int, parts)
	for p := range input {
		for r := 0; r < 4; r++ {
			input[p] = append(input[p], engine.Record{Key: "w" + strconv.Itoa((p+r)%5), Value: float64(p*4 + r)})
		}
		index[&input[p][0]] = p
	}
	return &engine.Job{
		Name:      name,
		Input:     input,
		SizeBytes: 1 << 28,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 3, Compute: func(in []engine.Record) []engine.Record {
				if p, ok := index[&in[0]]; ok {
					calls[p].Add(1)
				}
				return slices.Clone(in)
			}},
			{Name: "sum", Kind: engine.Result, Deps: []int{0}, Compute: func(in []engine.Record) []engine.Record {
				sums.Add(1)
				totals := map[string]float64{}
				for _, r := range in {
					totals[r.Key] += r.Value.(float64)
				}
				out := make([]engine.Record, 0, len(totals))
				for k, v := range totals {
					out = append(out, engine.Record{Key: k, Value: v})
				}
				slices.SortFunc(out, func(a, b engine.Record) int { return strings.Compare(a.Key, b.Key) })
				return out
			}},
		},
	}
}

// deepCopyJob builds a template field by field with its own Input
// partitions and Stages, so it cannot share the original's cached stage
// outputs.
func deepCopyJob(j *engine.Job) *engine.Job {
	input := make(engine.Dataset, len(j.Input))
	for p, part := range j.Input {
		input[p] = slices.Clone(part)
	}
	return &engine.Job{
		Name:      j.Name,
		Priority:  j.Priority,
		Input:     input,
		InputPath: j.InputPath,
		Stages:    slices.Clone(j.Stages),
		SizeBytes: j.SizeBytes,
	}
}

// runMemoFederation replays 80 arrivals of jobs through a 4-member
// federation on the 2-worker parallel kernel and returns every record,
// outputs included when keep is set.
func runMemoFederation(t *testing.T, jobs workload.FixedJobs, keep bool) []core.JobRecord {
	t.Helper()
	policy := core.PolicyNP(2)
	policy.KeepOutputs = keep
	var records []core.JobRecord
	fed, err := federation.New(federation.Config{
		Members:    []federation.MemberSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}},
		Policy:     policy,
		Routing:    federation.NewJoinShortestQueue(),
		Seed:       5,
		OnRecord:   func(_ int, rec core.JobRecord) { records = append(records, rec) },
		SimWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.NewPoissonMix([]float64{0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitStream(mix, jobs, 80, 9); err != nil {
		t.Fatal(err)
	}
	fed.Run()
	if len(records) != 80 {
		t.Fatalf("%d records for 80 arrivals", len(records))
	}
	return records
}

// TestParallelKernelComputesOncePerTemplate: members running on the
// parallel kernel's worker goroutines share each template's stage
// outputs — every input partition is computed once in the whole run —
// and the records match a run on deep copies that share nothing.
func TestParallelKernelComputesOncePerTemplate(t *testing.T) {
	var sums atomic.Int32
	lowCalls, highCalls := make([]atomic.Int32, 6), make([]atomic.Int32, 3)
	low, high := countedJob("low", 6, lowCalls, &sums), countedJob("high", 3, highCalls, &sums)
	got := runMemoFederation(t, workload.FixedJobs{low, high}, true)
	for class, calls := range [][]atomic.Int32{lowCalls, highCalls} {
		for p := range calls {
			if n := calls[p].Load(); n != 1 {
				t.Errorf("class %d partition %d computed %d times, want 1", class, p, n)
			}
		}
	}
	want := runMemoFederation(t, workload.FixedJobs{deepCopyJob(low), deepCopyJob(high)}, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("records differ from the run on deep-copied templates")
	}
}

// TestParallelKernelDiscardedOutputsChangeNothing: a federation cell on
// the 2-worker parallel kernel without KeepOutputs never computes a
// Result stage, and its records equal a KeepOutputs run's apart from
// Output.
func TestParallelKernelDiscardedOutputsChangeNothing(t *testing.T) {
	var keptSums, discardSums atomic.Int32
	run := func(keep bool, sums *atomic.Int32) []core.JobRecord {
		low := countedJob("low", 6, make([]atomic.Int32, 6), sums)
		high := countedJob("high", 3, make([]atomic.Int32, 3), sums)
		return runMemoFederation(t, workload.FixedJobs{low, high}, keep)
	}
	kept, discarded := run(true, &keptSums), run(false, &discardSums)
	if n := discardSums.Load(); n != 0 {
		t.Fatalf("%d Result-stage computes without KeepOutputs, want 0", n)
	}
	if keptSums.Load() == 0 {
		t.Fatal("kept run never computed the Result stage")
	}
	for i := range kept {
		if len(kept[i].Output) == 0 {
			t.Fatalf("record %d: no output kept", i)
		}
		kept[i].Output = nil
	}
	if !reflect.DeepEqual(kept, discarded) {
		t.Fatal("records differ apart from Output")
	}
}
