// Package analytics implements the paper's two evaluation applications as
// dataflow-engine jobs (§5.1):
//
//   - text analysis: word-popularity counting over per-topic post corpora
//     (the StackExchange workload) as a map + reduce job, and
//   - graph analysis: triangle counting (the GraphX workload) as a chain of
//     six ShuffleMap stages plus one Result stage.
//
// A task of either job sees tens to a few hundred records. The text stages
// count words in pooled hash maps; the triangle-count stages after
// canonicalize group records by sorting a pooled scratch slice and walking
// its runs of equal keys, which costs less than hashing at that size.
// Every stage returns its records in a fixed order, so the engine's
// bucketing, and with it every simulated number, does not depend on how a
// stage groups.
//
// It also provides the accuracy metrics the paper reports: ApproxHadoop-
// style inverse-sampling estimators and the relative error of approximate
// results against exact ones (Figure 6, §5.2.4).
package analytics

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"dias/internal/engine"
)

// --- Text analysis -------------------------------------------------------

// WordPopularityJob builds the paper's text-analysis job: stage 0 parses
// posts and emits per-partition word counts (a map-side combine, as Spark
// does), stage 1 sums counts per word and delivers (word, count) records.
// Input partitions hold post records whose Value is the post body text.
func WordPopularityJob(name string, corpus engine.Dataset, reducers int, sizeBytes int64) *engine.Job {
	return &engine.Job{
		Name:      name,
		Input:     corpus,
		SizeBytes: sizeBytes,
		Stages: []engine.Stage{
			{
				Name: "parse+count", Kind: engine.ShuffleMap, OutPartitions: reducers,
				Compute: mapWordCounts,
			},
			{
				Name: "aggregate", Kind: engine.Result, Deps: []int{0},
				Compute: reduceWordCounts,
			},
		},
	}
}

// countsPool recycles the per-task word-count scratch maps. Tasks of
// concurrent scenario runs execute these stages on different goroutines,
// so the scratch state is pooled rather than package-global; the map's
// bucket array survives reuse, which removes the dominant allocation of
// the text workload's hot path.
var countsPool = sync.Pool{
	New: func() any { return make(map[string]float64, 512) },
}

func mapWordCounts(in []engine.Record) []engine.Record {
	counts := countsPool.Get().(map[string]float64)
	for _, r := range in {
		body, ok := r.Value.(string)
		if !ok {
			continue
		}
		// FieldsSeq splits exactly like strings.Fields without
		// materializing the field slice.
		for w := range strings.FieldsSeq(body) {
			counts[w]++
		}
	}
	out := countsToRecords(counts)
	clear(counts)
	countsPool.Put(counts)
	return out
}

func reduceWordCounts(in []engine.Record) []engine.Record {
	counts := countsPool.Get().(map[string]float64)
	for _, r := range in {
		if v, ok := r.Value.(float64); ok {
			counts[r.Key] += v
		}
	}
	out := countsToRecords(counts)
	clear(counts)
	countsPool.Put(counts)
	return out
}

func countsToRecords(counts map[string]float64) []engine.Record {
	out := make([]engine.Record, 0, len(counts))
	for k, v := range counts {
		out = append(out, engine.Record{Key: k, Value: v})
	}
	// Deterministic order keeps downstream bucketing and tests stable.
	sortRecords(out)
	return out
}

// WordCounts folds a word-popularity result into a count map.
func WordCounts(output []engine.Record) map[string]float64 {
	counts := make(map[string]float64, len(output))
	for _, r := range output {
		if v, ok := r.Value.(float64); ok {
			counts[r.Key] += v
		}
	}
	return counts
}

// ScaleCounts applies the inverse-sampling correction: counts computed from
// a fraction (1-θ) of the tasks are scaled by 1/(1-θ) to stay unbiased, as
// ApproxHadoop does. factor is executedTasks/totalTasks of the sampled
// stage; factor <= 0 leaves counts untouched.
func ScaleCounts(counts map[string]float64, factor float64) map[string]float64 {
	out := make(map[string]float64, len(counts))
	if factor <= 0 {
		for k, v := range counts {
			out[k] = v
		}
		return out
	}
	inv := 1 / factor
	for k, v := range counts {
		out[k] = v * inv
	}
	return out
}

// TopWords returns the n highest-count words, ties broken alphabetically.
func TopWords(counts map[string]float64, n int) []string {
	type wc struct {
		w string
		c float64
	}
	all := make([]wc, 0, len(counts))
	for w, c := range counts {
		all = append(all, wc{w, c})
	}
	slices.SortFunc(all, func(a, b wc) int {
		if a.c != b.c {
			if a.c > b.c {
				return -1
			}
			return 1
		}
		return strings.Compare(a.w, b.w)
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].w
	}
	return out
}

// WordAccuracyMAPE returns the mean absolute percentage error of approx
// against exact over exact's top-n words — the paper's accuracy-loss metric
// for text analysis (Figure 6). Missing words count as zero.
func WordAccuracyMAPE(exact, approx map[string]float64, topN int) (float64, error) {
	words := TopWords(exact, topN)
	if len(words) == 0 {
		return 0, fmt.Errorf("analytics: no words in exact result")
	}
	var sum float64
	for _, w := range words {
		e := exact[w]
		a := approx[w]
		if e == 0 {
			continue
		}
		d := (a - e) / e
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return 100 * sum / float64(len(words)), nil
}

// --- Graph analysis ------------------------------------------------------

// Edge is an undirected graph edge.
type Edge struct {
	U, V int64
}

// Canonical returns the edge with U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

func (e Edge) key() string {
	return strconv.FormatInt(e.U, 10) + "," + strconv.FormatInt(e.V, 10)
}

func parseEdgeKey(k string) (Edge, bool) {
	i := strings.IndexByte(k, ',')
	if i < 0 {
		return Edge{}, false
	}
	u, err1 := strconv.ParseInt(k[:i], 10, 64)
	v, err2 := strconv.ParseInt(k[i+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return Edge{}, false
	}
	return Edge{U: u, V: v}, true
}

// EdgeDataset partitions an edge list into nParts input partitions.
func EdgeDataset(edges []Edge, nParts int) engine.Dataset {
	if nParts < 1 {
		nParts = 1
	}
	d := make(engine.Dataset, nParts)
	for i, e := range edges {
		p := i % nParts
		d[p] = append(d[p], engine.Record{Key: e.key(), Value: e})
	}
	return d
}

// Marker values distinguishing record roles in the triangle-count shuffle.
const (
	markerEdge  = "E"
	markerWedge = "W"
)

// TriangleCountJob builds the paper's graph-analysis job as six ShuffleMap
// stages plus one Result stage, mirroring the GraphX triangle-count plan
// (§5.1): canonicalize edges, deduplicate, build adjacency, enumerate
// wedges alongside edge markers, join wedges with edges, aggregate partial
// counts, and produce the global count. Every triangle is matched at all
// three of its wedges, so the Result stage divides by three.
func TriangleCountJob(name string, edges engine.Dataset, buckets int, sizeBytes int64) *engine.Job {
	return &engine.Job{
		Name:      name,
		Input:     edges,
		SizeBytes: sizeBytes,
		Stages: []engine.Stage{
			{Name: "canonicalize", Kind: engine.ShuffleMap, OutPartitions: buckets, Compute: stageCanonicalize},
			{Name: "dedup", Kind: engine.ShuffleMap, OutPartitions: buckets, Deps: []int{0}, Compute: stageDedup},
			{Name: "adjacency", Kind: engine.ShuffleMap, OutPartitions: buckets, Deps: []int{1}, Compute: stageAdjacency},
			{Name: "wedges", Kind: engine.ShuffleMap, OutPartitions: buckets, Deps: []int{2}, Compute: stageWedges},
			{Name: "join", Kind: engine.ShuffleMap, OutPartitions: buckets, Deps: []int{3}, Compute: stageJoin},
			{Name: "partial-count", Kind: engine.ShuffleMap, OutPartitions: 1, Deps: []int{4}, Compute: stagePartialCount},
			{Name: "total", Kind: engine.Result, Deps: []int{5}, Compute: stageTotal},
		},
	}
}

// stageCanonicalize re-keys every edge by its canonical (min,max) form.
func stageCanonicalize(in []engine.Record) []engine.Record {
	out := make([]engine.Record, 0, len(in))
	for _, r := range in {
		e, ok := r.Value.(Edge)
		if !ok {
			continue
		}
		if e.U == e.V {
			continue // self-loops form no triangles
		}
		c := e.Canonical()
		out = append(out, engine.Record{Key: c.key(), Value: c})
	}
	return out
}

// triangleScratch is the per-task scratch of the dependent stages, pooled
// because concurrent engines run these stages on different goroutines.
type triangleScratch struct {
	records []engine.Record
	adj     []adjEntry
	keys    []string
	counts  []float64
	buf     []byte
	ends    []int
}

// adjEntry is one (vertex key, neighbour) pair of stageWedges' input.
type adjEntry struct {
	key string
	n   int64
}

var scratchPool = sync.Pool{New: func() any { return new(triangleScratch) }}

// vertexCacheSize bounds the vertex IDs whose shuffle key and boxed value
// stageAdjacency takes from vertexCache; IDs outside [0, vertexCacheSize)
// are formatted and boxed per record.
const vertexCacheSize = 1024

// vertexCache holds, for each vertex ID below vertexCacheSize, its decimal
// key and its value boxed as int64. It is built once and only read after.
var vertexCache = sync.OnceValue(func() []engine.Record {
	c := make([]engine.Record, vertexCacheSize)
	for v := range c {
		c[v] = engine.Record{Key: strconv.Itoa(v), Value: int64(v)}
	}
	return c
})

// vertex returns v's shuffle key and v boxed as int64.
func vertex(v int64) (string, any) {
	if v >= 0 && v < vertexCacheSize {
		r := vertexCache()[v]
		return r.Key, r.Value
	}
	return strconv.FormatInt(v, 10), v
}

// stageDedup removes duplicate edges; canonical keys co-locate duplicates.
// It sorts the edge records, visited last to first, stably by key and keeps
// the first of each run — the last occurrence of each key — so it returns
// the kept records as they came, ordered by key.
func stageDedup(in []engine.Record) []engine.Record {
	sc := scratchPool.Get().(*triangleScratch)
	recs := sc.records[:0]
	for i := len(in) - 1; i >= 0; i-- {
		if _, ok := in[i].Value.(Edge); ok {
			recs = append(recs, in[i])
		}
	}
	slices.SortStableFunc(recs, compareKeys)
	recs = slices.CompactFunc(recs, func(a, b engine.Record) bool { return a.Key == b.Key })
	out := make([]engine.Record, len(recs))
	copy(out, recs)
	clear(recs)
	sc.records = recs[:0]
	scratchPool.Put(sc)
	return out
}

// stageAdjacency emits each edge under both endpoint keys so the next
// stage sees complete neighborhoods, plus one edge marker under the
// canonical key for the later join. Its input comes from stageDedup, so
// each record is already keyed by its edge's canonical key.
func stageAdjacency(in []engine.Record) []engine.Record {
	out := make([]engine.Record, 0, 3*len(in))
	for _, r := range in {
		e, ok := r.Value.(Edge)
		if !ok {
			continue
		}
		uKey, u := vertex(e.U)
		vKey, v := vertex(e.V)
		out = append(out,
			engine.Record{Key: uKey, Value: v},
			engine.Record{Key: vKey, Value: u},
			engine.Record{Key: r.Key, Value: markerEdge},
		)
	}
	return out
}

// stageWedges forwards edge markers unchanged, then emits one wedge record
// per pair of distinct neighbours of each vertex, vertices in key order and
// pairs in neighbour order. The (vertex, neighbour) pairs are sorted so each
// vertex's neighbourhood is one run, with repeated neighbours adjacent and
// dropped in place.
func stageWedges(in []engine.Record) []engine.Record {
	sc := scratchPool.Get().(*triangleScratch)
	adj := sc.adj[:0]
	markers := 0
	for _, r := range in {
		switch v := r.Value.(type) {
		case int64:
			adj = append(adj, adjEntry{key: r.Key, n: v})
		case string:
			if v == markerEdge {
				markers++
			}
		}
	}
	slices.SortFunc(adj, func(a, b adjEntry) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.n, b.n)
	})
	adj = slices.Compact(adj)
	// Write every wedge key into one buffer, to cut the keys out of a
	// single string copy of it: one allocation for all of them.
	buf, ends := sc.buf[:0], sc.ends[:0]
	var prefix [20 + 1]byte // an int64 and a comma
	for lo, hi := 0, 0; lo < len(adj); lo = hi {
		for hi = lo + 1; hi < len(adj) && adj[hi].key == adj[lo].key; hi++ {
		}
		for i := lo; i < hi; i++ {
			p := append(strconv.AppendInt(prefix[:0], adj[i].n, 10), ',')
			for j := i + 1; j < hi; j++ {
				buf = strconv.AppendInt(append(buf, p...), adj[j].n, 10)
				ends = append(ends, len(buf))
			}
		}
	}
	var out []engine.Record
	if n := markers + len(ends); n > 0 {
		out = make([]engine.Record, 0, n)
	}
	for _, r := range in {
		if v, ok := r.Value.(string); ok && v == markerEdge {
			out = append(out, r)
		}
	}
	keys := string(buf)
	start := 0
	for _, end := range ends {
		out = append(out, engine.Record{Key: keys[start:end], Value: markerWedge})
		start = end
	}
	clear(adj)
	sc.adj, sc.buf, sc.ends = adj[:0], buf[:0], ends[:0]
	scratchPool.Put(sc)
	return out
}

// stageJoin counts, per canonical pair key, wedges that close into
// triangles because the pair is also an edge. The edge-marker keys are
// sorted and deduplicated, each wedge is counted by a binary search into
// them, and the keys with a count are emitted in order.
func stageJoin(in []engine.Record) []engine.Record {
	sc := scratchPool.Get().(*triangleScratch)
	keys := sc.keys[:0]
	for _, r := range in {
		if v, ok := r.Value.(string); ok && v == markerEdge {
			keys = append(keys, r.Key)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	counts := slices.Grow(sc.counts[:0], len(keys))[:len(keys)]
	clear(counts)
	matched := 0
	for _, r := range in {
		if v, ok := r.Value.(string); ok && v == markerWedge {
			if i, found := slices.BinarySearch(keys, r.Key); found {
				if counts[i] == 0 {
					matched++
				}
				counts[i]++
			}
		}
	}
	var out []engine.Record
	if matched > 0 {
		out = make([]engine.Record, 0, matched)
		for i, c := range counts {
			if c > 0 {
				out = append(out, engine.Record{Key: keys[i], Value: c})
			}
		}
	}
	clear(keys)
	sc.keys, sc.counts = keys[:0], counts[:0]
	scratchPool.Put(sc)
	return out
}

// stagePartialCount sums matched wedges within its bucket.
func stagePartialCount(in []engine.Record) []engine.Record {
	var sum float64
	for _, r := range in {
		if v, ok := r.Value.(float64); ok {
			sum += v
		}
	}
	return []engine.Record{{Key: "partial", Value: sum}}
}

// stageTotal sums partial counts; each triangle was matched at its three
// wedges, so divide by three.
func stageTotal(in []engine.Record) []engine.Record {
	var sum float64
	for _, r := range in {
		if v, ok := r.Value.(float64); ok {
			sum += v
		}
	}
	return []engine.Record{{Key: "triangles", Value: sum / 3}}
}

// TriangleCount extracts the count from a TriangleCountJob result.
func TriangleCount(output []engine.Record) (float64, error) {
	var sum float64
	var found bool
	for _, r := range output {
		if r.Key == "triangles" {
			if v, ok := r.Value.(float64); ok {
				sum += v
				found = true
			}
		}
	}
	if !found {
		return 0, fmt.Errorf("analytics: no triangle count in %d output records", len(output))
	}
	return sum, nil
}

// ScaleTriangleEstimate applies the inverse-sampling correction for
// per-stage task dropping: with stage drop ratios thetas applied to the
// sampling-sensitive stages, the raw count underestimates roughly by the
// product of retained fractions, so scale by its inverse.
func ScaleTriangleEstimate(raw float64, thetas []float64) float64 {
	scale := 1.0
	for _, th := range thetas {
		if th > 0 && th < 1 {
			scale /= 1 - th
		}
	}
	return raw * scale
}

// RelativeErrorPct returns |approx-exact|/exact in percent.
func RelativeErrorPct(exact, approx float64) float64 {
	if exact == 0 {
		return 0
	}
	d := (approx - exact) / exact
	if d < 0 {
		d = -d
	}
	return 100 * d
}

// ExactTriangles counts triangles directly (sorted adjacency intersection),
// the reference for accuracy measurements.
func ExactTriangles(edges []Edge) int64 {
	adj := make(map[int64][]int64)
	seen := make(map[Edge]bool)
	for _, e := range edges {
		c := e.Canonical()
		if c.U == c.V || seen[c] {
			continue
		}
		seen[c] = true
		adj[c.U] = append(adj[c.U], c.V)
		adj[c.V] = append(adj[c.V], c.U)
	}
	for v := range adj {
		slices.Sort(adj[v])
	}
	var count int64
	for e := range seen {
		// Intersect neighbor lists of u and v, counting w > v to count each
		// triangle exactly once (u < v < w with all three edges present).
		nu, nv := adj[e.U], adj[e.V]
		i, j := 0, 0
		for i < len(nu) && j < len(nv) {
			switch {
			case nu[i] < nv[j]:
				i++
			case nu[i] > nv[j]:
				j++
			default:
				if nu[i] > e.V {
					count++
				}
				i++
				j++
			}
		}
	}
	return count
}

// sortRecords orders records by key without sort.Slice's reflection-based
// swapper, a measurable win on the per-task shuffle outputs.
func sortRecords(rs []engine.Record) {
	slices.SortFunc(rs, compareKeys)
}

func compareKeys(a, b engine.Record) int { return strings.Compare(a.Key, b.Key) }

// ParseEdgeKey is exported for tests and tooling that inspect shuffle keys.
func ParseEdgeKey(k string) (Edge, bool) { return parseEdgeKey(k) }
