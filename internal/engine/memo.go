package engine

import "sync"

// stageMemo caches the outputs of a job template's input-reading stages,
// one slot per (stage, partition), filled by the first execution that
// completes the task and served to every later one — on any engine and
// any goroutine. It hangs off the *Job it belongs to, so it lives exactly
// as long as the template.
type stageMemo struct {
	// input and stages are the template slices the outputs were computed
	// from. A shallow copy of a Job carries its base's memo pointer; it
	// may use the memo only while it reads the same Input and runs the
	// same Stages (same backing array, same length).
	input  Dataset
	stages []Stage
	// slots[s][p] holds the output of stage s on input partition p; nil
	// for stages that read shuffle output or have no Compute.
	slots [][]memoSlot
}

// memoSlot holds one task's output grouped by shuffle bucket: bucket b's
// records are out[offs[b]:offs[b+1]], in the order Compute produced them.
type memoSlot struct {
	once sync.Once
	out  []Record
	offs []int
}

// memoMu guards the memo field of every Job. It is taken once per
// submission, never per task.
var memoMu sync.Mutex

// outputMemo returns the template's memo, installing a fresh one when the
// job has none or carries one computed from other Input or Stages. The
// job must have passed Validate (non-empty Input and Stages).
func (j *Job) outputMemo() *stageMemo {
	memoMu.Lock()
	defer memoMu.Unlock()
	if m := j.memo; m != nil && &m.input[0] == &j.Input[0] && len(m.input) == len(j.Input) &&
		&m.stages[0] == &j.Stages[0] && len(m.stages) == len(j.Stages) {
		return m
	}
	m := &stageMemo{input: j.Input, stages: j.Stages, slots: make([][]memoSlot, len(j.Stages))}
	for si, s := range j.Stages {
		if len(s.Deps) == 0 && s.Compute != nil {
			m.slots[si] = make([]memoSlot, len(j.Input))
		}
	}
	j.memo = m
	return m
}

// output returns stage si's output on input partition p grouped into n
// shuffle buckets (see memoSlot), computing and grouping it on the first
// call only; concurrent callers wait for that one computation. A stage's
// n never changes, since the memo is bound to the template's Stages.
func (m *stageMemo) output(si, p int, compute TaskFunc, in []Record, n int) (out []Record, offs []int) {
	sl := &m.slots[si][p]
	sl.once.Do(func() { sl.out, sl.offs = groupByBucket(compute(in), n) })
	return sl.out, sl.offs
}

// groupByBucket stably reorders recs by bucketOf(key, n) — a counting
// sort — so each bucket's records form one contiguous run in their
// original relative order, exactly as a per-record append loop would
// deliver them. Bucket b is grouped[offs[b]:offs[b+1]].
func groupByBucket(recs []Record, n int) (grouped []Record, offs []int) {
	offs = make([]int, n+1)
	dest := make([]int32, len(recs))
	for i, r := range recs {
		b := bucketOf(r.Key, n)
		dest[i] = int32(b)
		offs[b+1]++
	}
	for b := 1; b <= n; b++ {
		offs[b] += offs[b-1]
	}
	next := make([]int, n)
	copy(next, offs)
	grouped = make([]Record, len(recs))
	for i, r := range recs {
		b := dest[i]
		grouped[next[b]] = r
		next[b]++
	}
	return grouped, offs
}
