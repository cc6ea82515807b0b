package analytics

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"dias/internal/engine"
)

// --- Frozen reference stages ------------------------------------------------
//
// refDedup, refAdjacency, refWedges and refJoin are the map-based triangle-
// count stages the sorted-run rewrite replaced, kept verbatim apart from
// their scratch maps (fresh here, pooled then). They are the oracle: the
// production stages must return DeepEqual records — same keys, values,
// order and nil-ness — on every input.

func refDedup(in []engine.Record) []engine.Record {
	seen := make(map[string]Edge)
	for _, r := range in {
		if e, ok := r.Value.(Edge); ok {
			seen[r.Key] = e
		}
	}
	out := make([]engine.Record, 0, len(seen))
	for k, e := range seen {
		out = append(out, engine.Record{Key: k, Value: e})
	}
	sortRecords(out)
	return out
}

func refAdjacency(in []engine.Record) []engine.Record {
	out := make([]engine.Record, 0, 3*len(in))
	for _, r := range in {
		e, ok := r.Value.(Edge)
		if !ok {
			continue
		}
		out = append(out,
			engine.Record{Key: strconv.FormatInt(e.U, 10), Value: e.V},
			engine.Record{Key: strconv.FormatInt(e.V, 10), Value: e.U},
			engine.Record{Key: refKey(e), Value: markerEdge},
		)
	}
	return out
}

func refWedges(in []engine.Record) []engine.Record {
	adj := make(map[string][]int64)
	var out []engine.Record
	for _, r := range in {
		switch v := r.Value.(type) {
		case int64:
			adj[r.Key] = append(adj[r.Key], v)
		case string:
			if v == markerEdge {
				out = append(out, r)
			}
		}
	}
	keys := make([]string, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		ns := refDedupSorted(adj[k])
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				w := Edge{U: ns[i], V: ns[j]}
				out = append(out, engine.Record{Key: refKey(w), Value: markerWedge})
			}
		}
	}
	return out
}

func refJoin(in []engine.Record) []engine.Record {
	wedges := make(map[string]float64)
	isEdge := make(map[string]bool)
	for _, r := range in {
		switch r.Value {
		case markerWedge:
			wedges[r.Key]++
		case markerEdge:
			isEdge[r.Key] = true
		}
	}
	var out []engine.Record
	keys := make([]string, 0, len(wedges))
	for k := range wedges {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if isEdge[k] {
			out = append(out, engine.Record{Key: k, Value: wedges[k]})
		}
	}
	return out
}

func refKey(e Edge) string {
	return strconv.FormatInt(e.U, 10) + "," + strconv.FormatInt(e.V, 10)
}

func refDedupSorted(xs []int64) []int64 {
	if len(xs) == 0 {
		return xs
	}
	slices.Sort(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// dependentStages pairs each dependent ShuffleMap stage of TriangleCountJob
// (by stage index) with its frozen reference.
var dependentStages = []struct {
	name     string
	index    int
	got, ref engine.TaskFunc
}{
	{"dedup", 1, stageDedup, refDedup},
	{"adjacency", 2, stageAdjacency, refAdjacency},
	{"wedges", 3, stageWedges, refWedges},
	{"join", 4, stageJoin, refJoin},
}

// --- Inputs -------------------------------------------------------------------

// baGraph draws a Barabási–Albert graph: an (m+1)-clique, then each new
// vertex links to m distinct earlier vertices picked proportionally to
// degree (the shape workload.SynthesizeGraph gives the graph figures).
func baGraph(rng *rand.Rand, nodes, m int) []Edge {
	var edges []Edge
	var endpoints []int64
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, Edge{int64(u), int64(v)})
			endpoints = append(endpoints, int64(u), int64(v))
		}
	}
	for v := m + 1; v < nodes; v++ {
		var chosen []int64
		for len(chosen) < m {
			if t := endpoints[rng.Intn(len(endpoints))]; !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			edges = append(edges, Edge{int64(v), t})
			endpoints = append(endpoints, int64(v), t)
		}
	}
	return edges
}

// stageInputs runs job on the engine with every Compute wrapped to record a
// copy of each task's input, and returns those inputs by stage index. The
// dependent stages' inputs are therefore exactly the engine's shuffle
// buckets — cut by its bucketOf, in its task-completion order, and missing
// the partitions drops removed.
func stageInputs(tb testing.TB, job *engine.Job, drops []float64) [][][]engine.Record {
	tb.Helper()
	seen := make([][][]engine.Record, len(job.Stages))
	wrapped := *job
	wrapped.Stages = slices.Clone(job.Stages)
	for i := range wrapped.Stages {
		compute := wrapped.Stages[i].Compute
		wrapped.Stages[i].Compute = func(in []engine.Record) []engine.Record {
			seen[i] = append(seen[i], slices.Clone(in))
			return compute(in)
		}
	}
	runJob(tb, &wrapped, drops)
	return seen
}

// checkStage runs got and ref on in, failing on any difference in the
// returned records or any write to in.
func checkStage(t *testing.T, label string, got, ref engine.TaskFunc, in []engine.Record) {
	t.Helper()
	before := slices.Clone(in)
	want := ref(slices.Clone(in))
	out := got(in)
	if !reflect.DeepEqual(in, before) {
		t.Fatalf("%s: stage modified its input", label)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("%s: output differs from the reference stage\nin   %v\ngot  %v\nwant %v", label, in, out, want)
	}
}

// TestTriangleStagesMatchReferenceOnBucketedGraphs: on random Barabási–
// Albert graphs the dependent stages return exactly what the reference
// stages return for every shuffle bucket the engine hands them, with and
// without per-stage drops removing partitions.
func TestTriangleStagesMatchReferenceOnBucketedGraphs(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	for s := 0; s < seeds; s++ {
		rng := rand.New(rand.NewSource(int64(100 + s)))
		nodes, m := 20+rng.Intn(280), 1+rng.Intn(4)
		edges := baGraph(rng, nodes, m)
		// Duplicate and reverse a few edges so dedup has work to do.
		for i := 0; i < len(edges)/10; i++ {
			e := edges[rng.Intn(len(edges))]
			edges = append(edges, e, Edge{e.V, e.U})
		}
		parts, buckets := 1+rng.Intn(40), 1+rng.Intn(100)
		job := TriangleCountJob("tc", EdgeDataset(edges, parts), buckets, 1000)
		for _, drops := range [][]float64{nil, randomDrops(rng)} {
			inputs := stageInputs(t, job, drops)
			for _, st := range dependentStages {
				if drops == nil && len(inputs[st.index]) != buckets {
					t.Fatalf("seed %d: stage %s ran %d tasks, want %d", s, st.name, len(inputs[st.index]), buckets)
				}
				for b, in := range inputs[st.index] {
					label := fmt.Sprintf("seed %d nodes %d m %d drops %v: %s task %d", s, nodes, m, drops, st.name, b)
					checkStage(t, label, st.got, st.ref, in)
				}
			}
		}
	}
}

// randomDrops draws a drop ratio per ShuffleMap stage, some zero.
func randomDrops(rng *rand.Rand) []float64 {
	drops := make([]float64, 6)
	for i := range drops {
		if rng.Intn(3) > 0 {
			drops[i] = 0.05 + 0.5*rng.Float64()
		}
	}
	return drops
}

// TestTriangleStagesMatchReferenceOnRandomSubsets: every stage agrees with
// its reference on random subsets of one graph's partitions, the records a
// bucket holds after drops removed some upstream tasks, in shuffled order.
func TestTriangleStagesMatchReferenceOnRandomSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := baGraph(rng, 300, 3)
	job := TriangleCountJob("tc", EdgeDataset(edges, 100), 100, 1000)
	inputs := stageInputs(t, job, nil)
	trials := 200
	if testing.Short() {
		trials = 50
	}
	for _, st := range dependentStages {
		pool := inputs[st.index]
		for trial := 0; trial < trials; trial++ {
			var in []engine.Record
			for _, p := range pool {
				if rng.Intn(4) == 0 {
					in = append(in, p...)
				}
			}
			rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			checkStage(t, fmt.Sprintf("%s trial %d", st.name, trial), st.got, st.ref, in)
		}
	}
}

// TestTriangleStagesMatchReferenceOnAdversarialInputs covers inputs no
// figure graph produces: empty and single-record tasks, self-loops,
// duplicate and reversed edges, negative vertex IDs, IDs beyond any vertex-
// key cache, vertices with a single neighbour, and values of foreign types.
func TestTriangleStagesMatchReferenceOnAdversarialInputs(t *testing.T) {
	edge := func(u, v int64) engine.Record {
		e := Edge{u, v}
		return engine.Record{Key: refKey(e), Value: e}
	}
	const big = int64(1) << 40
	edgeSets := map[string][]engine.Record{
		"empty":          nil,
		"empty non-nil":  {},
		"single":         {edge(1, 2)},
		"self-loop":      {edge(3, 3), edge(3, 4), edge(3, 3)},
		"duplicates":     {edge(1, 2), edge(1, 2), edge(2, 3), edge(1, 2), edge(1, 3)},
		"reversed":       {edge(2, 1), edge(1, 2), edge(3, 1), edge(1, 3), edge(3, 2)},
		"negative":       {edge(-5, -1), edge(-5, 2), edge(-1, 2), edge(-10, -5), edge(-1, 0)},
		"large":          {edge(big, big+1), edge(big, 7), edge(7, big+1), edge(1e6, 1e6+3), edge(1e6, 9), edge(1023, 1024), edge(1024, 9), edge(9, 1023)},
		"one neighbour":  {edge(1, 2), edge(3, 4), edge(5, 6)},
		"string order":   {edge(2, 10), edge(10, 100), edge(2, 100), edge(9, 10), edge(9, 2)},
		"foreign values": {edge(1, 2), {Key: "1,3", Value: "E"}, {Key: "x", Value: 3}, edge(2, 3), {Key: "1,3", Value: Edge{1, 3}}},
	}
	for name, in := range edgeSets {
		checkStage(t, "dedup "+name, stageDedup, refDedup, in)
		checkStage(t, "adjacency "+name, stageAdjacency, refAdjacency, in)
		// Chain through the reference stages so each stage also sees
		// the input its real predecessor would give it.
		adj := refAdjacency(refDedup(stageCanonicalize(in)))
		checkStage(t, "wedges "+name, stageWedges, refWedges, adj)
		checkStage(t, "join "+name, stageJoin, refJoin, refWedges(adj))
	}
	// One key, different edge values: dedup keeps the last record. (No
	// later stage sees such input: canonicalize keys each edge by itself.)
	checkStage(t, "dedup key collision", stageDedup, refDedup,
		[]engine.Record{{Key: "1,2", Value: Edge{1, 2}}, {Key: "1,2", Value: Edge{2, 1}}, {Key: "0,1", Value: Edge{0, 1}}})
	// Enough colliding records that an unstable sort would reorder them.
	var collisions []engine.Record
	for i := int64(0); i < 200; i++ {
		collisions = append(collisions, engine.Record{Key: strconv.FormatInt(i*7%5, 10), Value: Edge{i, i + 1}})
	}
	checkStage(t, "dedup many collisions", stageDedup, refDedup, collisions)

	wedgeInputs := map[string][]engine.Record{
		"empty":            nil,
		"single neighbour": {{Key: "4", Value: int64(9)}},
		"single marker":    {{Key: "1,2", Value: markerEdge}},
		"repeat neighbour": {{Key: "4", Value: int64(9)}, {Key: "4", Value: int64(9)}, {Key: "4", Value: int64(2)}, {Key: "4", Value: int64(9)}},
		"self neighbour":   {{Key: "4", Value: int64(4)}, {Key: "4", Value: int64(1)}, {Key: "4", Value: int64(4)}},
		"negatives":        {{Key: "-3", Value: int64(-7)}, {Key: "-3", Value: int64(5)}, {Key: "-3", Value: int64(-1)}, {Key: "5", Value: int64(-3)}},
		"foreign values":   {{Key: "4", Value: 9}, {Key: "4", Value: int64(1)}, {Key: "4", Value: markerWedge}, {Key: "4", Value: int64(2)}, {Key: "1,2", Value: markerEdge}},
		"interleaved":      {{Key: "10", Value: int64(3)}, {Key: "3,10", Value: markerEdge}, {Key: "2", Value: int64(10)}, {Key: "10", Value: int64(2)}, {Key: "2", Value: int64(3)}, {Key: "2,3", Value: markerEdge}, {Key: "10", Value: int64(-1)}},
	}
	for name, in := range wedgeInputs {
		checkStage(t, "wedges "+name, stageWedges, refWedges, in)
	}

	joinInputs := map[string][]engine.Record{
		"empty":           nil,
		"only wedges":     {{Key: "1,2", Value: markerWedge}, {Key: "1,2", Value: markerWedge}},
		"only edges":      {{Key: "1,2", Value: markerEdge}, {Key: "1,3", Value: markerEdge}},
		"single wedge":    {{Key: "1,2", Value: markerWedge}},
		"duplicate edges": {{Key: "1,2", Value: markerEdge}, {Key: "1,2", Value: markerWedge}, {Key: "1,2", Value: markerEdge}, {Key: "0,9", Value: markerEdge}, {Key: "1,2", Value: markerWedge}},
		"unmatched":       {{Key: "1,2", Value: markerWedge}, {Key: "1,3", Value: markerEdge}, {Key: "1,4", Value: markerWedge}, {Key: "1,3", Value: markerWedge}},
		"foreign values":  {{Key: "1,2", Value: markerEdge}, {Key: "1,2", Value: 1.0}, {Key: "1,2", Value: "X"}, {Key: "1,2", Value: markerWedge}, {Key: "1,3", Value: Edge{1, 3}}},
		"key order":       {{Key: "10,2", Value: markerEdge}, {Key: "2,10", Value: markerWedge}, {Key: "10,2", Value: markerWedge}, {Key: "2,10", Value: markerEdge}, {Key: "1,10", Value: markerEdge}, {Key: "1,10", Value: markerWedge}},
	}
	for name, in := range joinInputs {
		checkStage(t, "join "+name, stageJoin, refJoin, in)
	}
}

// BenchmarkTriangleCountStages times each dependent stage of the triangle-
// count job over the shuffle buckets of a figure-10-shaped run (300-vertex
// Barabási–Albert graph, m=3, 100 input partitions, 100 buckets): one op
// is the stage's compute over all 100 buckets.
func BenchmarkTriangleCountStages(b *testing.B) {
	edges := baGraph(rand.New(rand.NewSource(51)), 300, 3)
	job := TriangleCountJob("tc", EdgeDataset(edges, 100), 100, 750<<20)
	inputs := stageInputs(b, job, nil)
	for _, st := range dependentStages {
		b.Run(st.name, func(b *testing.B) {
			buckets := inputs[st.index]
			b.ReportAllocs()
			for b.Loop() {
				for _, in := range buckets {
					st.got(in)
				}
			}
		})
	}
}
