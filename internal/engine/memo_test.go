package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dias/internal/cluster"
	"dias/internal/simtime"
)

// scaleMap is a deterministic map Compute: every record's value doubled,
// keys folded onto a small vocabulary so reducers see real shuffles.
func scaleMap(in []Record) []Record {
	out := make([]Record, len(in))
	for i, r := range in {
		out[i] = Record{Key: r.Key, Value: 2 * r.Value.(float64)}
	}
	return out
}

// sumByKey is a deterministic reduce Compute: per-key sums in key order.
func sumByKey(in []Record) []Record {
	sums := map[string]float64{}
	for _, r := range in {
		sums[r.Key] += r.Value.(float64)
	}
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]Record, len(keys))
	for i, k := range keys {
		out[i] = Record{Key: k, Value: sums[k]}
	}
	return out
}

// memoTemplate builds a two-stage template over parts partitions whose
// record values start at base.
func memoTemplate(parts int, base float64) *Job {
	input := make(Dataset, parts)
	for p := range input {
		for r := 0; r < 5; r++ {
			input[p] = append(input[p], Record{Key: "w" + strconv.Itoa((p*5+r)%7), Value: base + float64(p*5+r)})
		}
	}
	return &Job{
		Name:      "memo",
		Input:     input,
		SizeBytes: 1 << 20,
		Stages: []Stage{
			{Name: "map", Kind: ShuffleMap, OutPartitions: 3, Compute: scaleMap},
			{Name: "reduce", Kind: Result, Deps: []int{0}, Compute: sumByKey},
		},
	}
}

// countCalls wraps the template's stage-0 Compute so calls[p] counts the
// computations of input partition p (identified by its first record).
func countCalls(job *Job) []atomic.Int32 {
	calls := make([]atomic.Int32, len(job.Input))
	index := make(map[*Record]int, len(job.Input))
	for p := range job.Input {
		index[&job.Input[p][0]] = p
	}
	f := job.Stages[0].Compute
	job.Stages[0].Compute = func(in []Record) []Record {
		if p, ok := index[&in[0]]; ok {
			calls[p].Add(1)
		}
		return f(in)
	}
	return calls
}

// deepCopy returns a template built field by field with its own Input
// partitions and Stages, so it can neither carry nor be served the
// original's cached outputs.
func deepCopy(j *Job) *Job {
	input := make(Dataset, len(j.Input))
	for p, part := range j.Input {
		input[p] = slices.Clone(part)
	}
	return &Job{
		Name:      j.Name,
		Priority:  j.Priority,
		Input:     input,
		InputPath: j.InputPath,
		Stages:    slices.Clone(j.Stages),
		SizeBytes: j.SizeBytes,
	}
}

// runTemplate submits job once per drop vector on a fresh 4-slot engine
// seeded with seed (tasks contend and the cost model is noisy) and
// returns the results in completion order.
func runTemplate(seed int64, job *Job, drops ...[]float64) ([]JobResult, error) {
	sim := simtime.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.CoresPerNode = 4, 1
	clu, err := cluster.New(sim, cfg)
	if err != nil {
		return nil, err
	}
	eng, err := New(sim, clu, nil, DefaultCostModel(), seed)
	if err != nil {
		return nil, err
	}
	var out []JobResult
	for _, d := range drops {
		if _, err := eng.Submit(job, SubmitOptions{
			DropRatios: d,
			OnComplete: func(r JobResult) { out = append(out, r) },
		}); err != nil {
			return nil, err
		}
	}
	sim.Run()
	if len(out) != len(drops) {
		return nil, fmt.Errorf("%d of %d jobs completed", len(out), len(drops))
	}
	return out, nil
}

// checkOncePerPartition asserts every input partition was computed
// exactly once.
func checkOncePerPartition(t *testing.T, calls []atomic.Int32) {
	t.Helper()
	for p := range calls {
		if n := calls[p].Load(); n != 1 {
			t.Errorf("partition %d computed %d times, want 1", p, n)
		}
	}
}

var memoDrops = [][]float64{{0.5}, nil, {0.2, 0.3}, nil}

// TestMemoOneComputePerTemplate: one template run on several engines in
// turn, then on engines racing on goroutines, computes each input
// partition once, and every result equals the same engine's run of a
// deep copy that shares nothing.
func TestMemoOneComputePerTemplate(t *testing.T) {
	check := func(t *testing.T, seed int64, job *Job) {
		got, err := runTemplate(seed, job, memoDrops...)
		if err != nil {
			t.Error(err)
			return
		}
		want, err := runTemplate(seed, deepCopy(job), memoDrops...)
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: results differ from the deep-copied template's", seed)
		}
	}

	t.Run("sequential", func(t *testing.T) {
		job := memoTemplate(12, 1)
		calls := countCalls(job)
		for seed := int64(1); seed <= 3; seed++ {
			check(t, seed, job)
		}
		checkOncePerPartition(t, calls)
	})

	t.Run("concurrent", func(t *testing.T) {
		job := memoTemplate(12, 1)
		calls := countCalls(job)
		var wg sync.WaitGroup
		for seed := int64(1); seed <= 6; seed++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(t, seed, job)
			}()
		}
		wg.Wait()
		checkOncePerPartition(t, calls)
	})
}

// TestMemoShallowCopies: a copy sharing Input and Stages is served the
// base's outputs; a copy with a prefix of the Input, a replaced Input or
// replaced Stages computes its own and gets the right answer.
func TestMemoShallowCopies(t *testing.T) {
	base := memoTemplate(8, 1)
	calls := countCalls(base)
	if _, err := runTemplate(1, base, nil); err != nil {
		t.Fatal(err)
	}
	checkOncePerPartition(t, calls)

	variant := *base // a data-home variant: same Input and Stages
	variant.Name, variant.InputPath = "memo-1", "/fed/memo-1"

	prefix := *base
	prefix.Input = base.Input[:5]

	newInput := *base
	newInput.Input = memoTemplate(8, 100).Input

	newStages := *base
	newStages.Stages = slices.Clone(base.Stages)
	newStages.Stages[0].Compute = func(in []Record) []Record {
		out := scaleMap(in)
		for i := range out {
			out[i].Value = out[i].Value.(float64) + 1
		}
		return out
	}

	cases := []struct {
		name   string
		job    *Job
		shares bool // served the base's cached outputs
	}{
		{"variant", &variant, true},
		{"prefix", &prefix, false},
		{"new-input", &newInput, false},
		{"new-stages", &newStages, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := runTemplate(2, c.job, nil, []float64{0.25})
			if err != nil {
				t.Fatal(err)
			}
			want, err := runTemplate(2, deepCopy(c.job), nil, []float64{0.25})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("results differ from the deep-copied template's:\ngot  %v\nwant %v", got[0].Output, want[0].Output)
			}
			if (c.job.memo == base.memo) != c.shares {
				t.Errorf("copy shares the base's memo: %v, want %v", c.job.memo == base.memo, c.shares)
			}
		})
	}
	// The variant added no computes; the prefix, which runs the counted
	// Compute over the base's own first five partitions, computed each
	// of them once more.
	for p := range calls {
		want := int32(1)
		if p < len(prefix.Input) {
			want = 2
		}
		if n := calls[p].Load(); n != want {
			t.Errorf("partition %d computed %d times, want %d", p, n, want)
		}
	}
}
