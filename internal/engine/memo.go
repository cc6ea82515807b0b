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

type memoSlot struct {
	once sync.Once
	out  []Record
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

// output returns stage si's output on input partition p, computing it on
// the first call only; concurrent callers wait for that one computation.
func (m *stageMemo) output(si, p int, compute TaskFunc, in []Record) []Record {
	sl := &m.slots[si][p]
	sl.once.Do(func() { sl.out = compute(in) })
	return sl.out
}
