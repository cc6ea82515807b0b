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

// srcTag marks a map output record with its origin: input partition p,
// input record i, copy j.
type srcTag struct{ p, i, j int }

// bucketTemplate builds a map/identity template whose map emits i%3
// copies of input record i, keyed by key(p, i, j) and tagged with their
// srcTag, into n buckets. Partition 0 is long enough to straggle;
// partition 1 holds one record, so its map output is empty.
func bucketTemplate(n int, key func(p, i, j int) string) *Job {
	input := make(Dataset, 9)
	for p := range input {
		size := 6
		switch p {
		case 0:
			size = 40
		case 1:
			size = 1
		}
		for i := 0; i < size; i++ {
			input[p] = append(input[p], Record{Key: "in", Value: srcTag{p: p, i: i}})
		}
	}
	fanOut := func(in []Record) []Record {
		var out []Record
		for _, r := range in {
			src := r.Value.(srcTag)
			for j := 0; j < src.i%3; j++ {
				out = append(out, Record{Key: key(src.p, src.i, j), Value: srcTag{src.p, src.i, j}})
			}
		}
		return out
	}
	return &Job{
		Name:      "buckets",
		Input:     input,
		SizeBytes: 1 << 20,
		Stages: []Stage{
			{Name: "map", Kind: ShuffleMap, OutPartitions: n, Compute: fanOut},
			{Name: "identity", Kind: Result, Deps: []int{0}},
		},
	}
}

func spreadKeys(p, i, j int) string { return "k" + strconv.Itoa(p*7+i*3+j) }

// oneBucketKeys draws keys that all hash to bucket 3 of 7.
func oneBucketKeys() func(p, i, j int) string {
	var keys []string
	for k := 0; len(keys) < 5; k++ {
		if s := "z" + strconv.Itoa(k); bucketOf(s, 7) == 3 {
			keys = append(keys, s)
		}
	}
	return func(p, i, j int) string { return keys[(p+i+j)%len(keys)] }
}

// runBuckets submits job four times (two with a stage-0 drop) on a fresh
// noisy 4-slot engine, with speculation when spec is set, and returns the
// results and the engine's backup-launch count.
func runBuckets(seed int64, job *Job, spec bool) ([]JobResult, int, error) {
	sim := simtime.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.CoresPerNode = 4, 1
	clu, err := cluster.New(sim, cfg)
	if err != nil {
		return nil, 0, err
	}
	eng, err := New(sim, clu, nil, CostModel{TaskOverheadSec: 0.2, PerRecordSec: 0.1, NoiseSigma: 0.3}, seed)
	if err != nil {
		return nil, 0, err
	}
	if spec {
		if err := eng.SetSpeculation(SpeculationConfig{Enabled: true, Multiplier: 1.5, MinCompleted: 2}); err != nil {
			return nil, 0, err
		}
	}
	var out []JobResult
	for _, d := range [][]float64{nil, {0.5}, nil, {0.25}} {
		if _, err := eng.Submit(job, SubmitOptions{
			DropRatios: d,
			OnComplete: func(r JobResult) { out = append(out, r) },
		}); err != nil {
			return nil, 0, err
		}
	}
	sim.Run()
	if len(out) != 4 {
		return nil, 0, fmt.Errorf("%d of 4 jobs completed", len(out))
	}
	return out, eng.SpeculativeLaunched(), nil
}

// checkBuckets is the per-record oracle: it recomputes the map's Compute
// on every input partition and buckets each record with bucketOf, then
// requires that every identity reducer received, record for record, what
// a per-record append loop delivers — for each executed map partition, in
// one completion order shared by all buckets, exactly that partition's
// records of the bucket in Compute order.
func checkBuckets(job *Job, res JobResult) error {
	n := job.Stages[0].OutPartitions
	want := make([][][]Record, len(job.Input)) // want[p][b]
	for p, part := range job.Input {
		want[p] = make([][]Record, n)
		for _, r := range job.Stages[0].Compute(part) {
			b := bucketOf(r.Key, n)
			want[p][b] = append(want[p][b], r)
		}
	}
	// Each reducer's input is one contiguous run of the identity Result
	// stage's Output, and every record in it hashes to that reducer.
	got := make([][]Record, n)
	for _, r := range res.Output {
		b := bucketOf(r.Key, n)
		got[b] = append(got[b], r)
	}
	seqs := make([][]int, n) // seqs[b]: source partitions in arrival order
	executed := map[int]bool{}
	for b, recs := range got {
		for len(recs) > 0 {
			p := recs[0].Value.(srcTag).p
			w := want[p][b]
			if len(w) == 0 || len(recs) < len(w) || !reflect.DeepEqual(recs[:len(w)], w) {
				return fmt.Errorf("bucket %d: run from partition %d differs from per-record bucketing", b, p)
			}
			if slices.Contains(seqs[b], p) {
				return fmt.Errorf("bucket %d: partition %d delivered twice", b, p)
			}
			seqs[b] = append(seqs[b], p)
			executed[p] = true
			recs = recs[len(w):]
		}
	}
	for b, seq := range seqs {
		for p := range executed {
			if len(want[p][b]) > 0 && !slices.Contains(seq, p) {
				return fmt.Errorf("bucket %d: executed partition %d missing", b, p)
			}
		}
		for _, other := range seqs[b+1:] {
			for x, p := range seq {
				for _, q := range seq[x+1:] {
					if i, j := slices.Index(other, p), slices.Index(other, q); i >= 0 && j >= 0 && j < i {
						return fmt.Errorf("partitions %d and %d arrive in different orders across buckets", p, q)
					}
				}
			}
		}
	}
	if res.Stages[0].TasksDropped == 0 {
		for p := range job.Input {
			if !executed[p] && slices.ContainsFunc(want[p], func(rs []Record) bool { return len(rs) > 0 }) {
				return fmt.Errorf("partition %d ran but delivered nothing", p)
			}
		}
	}
	return nil
}

// TestMemoServesBucketGroupedOutput: map outputs served pre-grouped from
// the template memo reach the dependent stage exactly as per-record
// bucketing would deliver them — one and seven (uneven) buckets, keys all
// in one bucket (the rest empty), an empty map output, stage-0 drops and
// speculative twins, and six engines racing on one template.
func TestMemoServesBucketGroupedOutput(t *testing.T) {
	cases := []struct {
		name string
		job  *Job
	}{
		{"one-bucket-fanout", bucketTemplate(1, spreadKeys)},
		{"seven-buckets", bucketTemplate(7, spreadKeys)},
		{"all-keys-one-bucket", bucketTemplate(7, oneBucketKeys())},
	}
	empty := bucketTemplate(7, spreadKeys)
	empty.Name = "empty"
	empty.Stages[0].Compute = func([]Record) []Record { return nil }
	cases = append(cases, struct {
		name string
		job  *Job
	}{"empty-map-output", empty})

	launched := 0
	for _, c := range cases {
		for _, spec := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spec=%v", c.name, spec), func(t *testing.T) {
				results, backups, err := runBuckets(1, c.job, spec)
				if err != nil {
					t.Fatal(err)
				}
				launched += backups
				for i, res := range results {
					if err := checkBuckets(c.job, res); err != nil {
						t.Fatalf("run %d: %v", i, err)
					}
				}
				if c.name == "empty-map-output" && len(results[0].Output) != 0 {
					t.Fatalf("empty map output delivered %d records", len(results[0].Output))
				}
			})
		}
	}
	if launched == 0 {
		t.Fatal("no speculative twin launched: the twin path was not exercised")
	}

	t.Run("racing-engines", func(t *testing.T) {
		job := bucketTemplate(7, spreadKeys)
		var wg sync.WaitGroup
		for seed := int64(1); seed <= 6; seed++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results, _, err := runBuckets(seed, job, seed%2 == 0)
				if err != nil {
					t.Error(err)
					return
				}
				for i, res := range results {
					if err := checkBuckets(job, res); err != nil {
						t.Errorf("seed %d run %d: %v", seed, i, err)
					}
				}
			}()
		}
		wg.Wait()
	})
}
