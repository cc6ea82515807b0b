package main

// The figures workload: the paper-figure drivers through the experiments
// registry, traced into a telemetry registry whose exports are written
// to disk, as dias-experiments -trace/-events/-timeline does.

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"time"

	"dias/internal/experiments"
	"dias/internal/metrics"
	"dias/internal/telemetry"
)

// figureDrivers are the drivers the workload runs, keyed by the metric
// label of their host time (experiments.<label>_s).
//
// Figure 10's output differs between runs of the same seed:
// workload.SynthesizeGraph ranges over a map while building the graph,
// so Go's randomized map order changes the edges drawn. Until that is
// fixed, an unstable driver is traced into its own registry and kept out
// of the checked digest, so the digest stays a usable oracle for the
// other drivers; the run reports the defect as a warning instead.
var figureDrivers = []struct {
	name, label string
	unstable    bool
}{
	{"7", "fig7", false},
	{"10", "fig10", true},
	{"faults", "faults", false},
	{"elasticity", "elasticity", false},
	{"overload", "overload", false},
	{"federation-scaleout", "federation-scaleout", false},
}

// figureWorkers is the runner pool size, one per core of the reference
// 2-core host.
const figureWorkers = 2

type figuresRun struct {
	seed   int64
	jobs   int
	dir    string // export destination
	driver []experiments.Driver
	// Per-driver host seconds and telemetry export cost, summed over
	// traced iterations.
	driverSec []float64
	exportSec float64
	exportMB  float64
}

func newFiguresRun(seed int64, jobs int, dir string) (*figuresRun, error) {
	r := &figuresRun{seed: seed, jobs: jobs, dir: dir, driverSec: make([]float64, len(figureDrivers))}
	for _, fd := range figureDrivers {
		d, ok := experiments.Lookup(fd.name)
		if !ok {
			return nil, fmt.Errorf("figure driver %q is not registered", fd.name)
		}
		r.driver = append(r.driver, d)
	}
	return r, nil
}

// figuresOutcome is the simulated result of one figures iteration.
type figuresOutcome struct {
	// digest covers the stable drivers' text and exports, unstableText
	// the unstable drivers' text.
	digest, unstableText string
	scenarios            []metrics.ScenarioResult
	regs                 []*telemetry.Registry
}

func (r *figuresRun) scale(d experiments.Driver, part int, reg *telemetry.Registry) experiments.Scale {
	return d.Scaled(experiments.Scale{
		Jobs:           r.jobs,
		WarmupFraction: 0.1,
		Seed:           subSeed(r.seed, part),
		Workers:        figureWorkers,
		Telemetry:      reg,
	})
}

// iterate runs every driver once at the part's seed and writes the
// telemetry exports.
func (r *figuresRun) iterate(part int, traced bool) (*figuresOutcome, error) {
	// Index 1 holds the unstable drivers' registry and text.
	regs := [2]*telemetry.Registry{telemetry.NewRegistry(telemetry.Config{}), telemetry.NewRegistry(telemetry.Config{})}
	hs := [2]hash.Hash{sha256.New(), sha256.New()}
	out := &figuresOutcome{regs: regs[:]}
	for i, d := range r.driver {
		k := 0
		if figureDrivers[i].unstable {
			k = 1
		}
		start := time.Now()
		res, err := d.Run(r.scale(d, part, regs[k].Namespace(d.Name)))
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", d.Name, err)
		}
		io.WriteString(hs[k], res.Text.String())
		if traced {
			r.driverSec[i] += time.Since(start).Seconds()
		}
		out.scenarios = append(out.scenarios, res.Scenarios...)
	}
	start := time.Now()
	var bytes int64
	for k, sub := range []string{"stable", "unstable"} {
		var h io.Writer = hs[0]
		if k == 1 {
			h = io.Discard
		}
		n, err := writeExports(regs[k], filepath.Join(r.dir, sub), h)
		if err != nil {
			return nil, err
		}
		bytes += n
	}
	if traced {
		r.exportSec += time.Since(start).Seconds()
		r.exportMB += float64(bytes) / 1e6
	}
	out.digest = fmt.Sprintf("%x", hs[0].Sum(nil))[:16]
	out.unstableText = fmt.Sprintf("%x", hs[1].Sum(nil))[:16]
	return out, nil
}

// unstableRepeats reruns the unstable drivers, untraced, at the part's
// seed and reports whether their text matches the first run's.
func (r *figuresRun) unstableRepeats(part int, first *figuresOutcome) (bool, error) {
	h := sha256.New()
	for i, d := range r.driver {
		if !figureDrivers[i].unstable {
			continue
		}
		res, err := d.Run(r.scale(d, part, nil))
		if err != nil {
			return false, fmt.Errorf("figure %s: %w", d.Name, err)
		}
		io.WriteString(h, res.Text.String())
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16] == first.unstableText, nil
}

// writeExports writes the Chrome trace, the event stream and the gauge
// timeline, feeding every byte to h; it returns the bytes written.
func writeExports(reg *telemetry.Registry, dir string, h io.Writer) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	for _, x := range []struct {
		file string
		fn   func(io.Writer) error
	}{
		{"trace.json", reg.WriteChromeTrace},
		{"events.jsonl", reg.WriteEventsJSONL},
		{"timeline.csv", reg.WriteTimelineCSV},
	} {
		f, err := os.Create(filepath.Join(dir, x.file))
		if err != nil {
			return 0, err
		}
		cw := &countingWriter{w: io.MultiWriter(f, h)}
		if err := x.fn(cw); err != nil {
			f.Close()
			return 0, fmt.Errorf("writing %s: %w", x.file, err)
		}
		if err := f.Close(); err != nil {
			return 0, fmt.Errorf("writing %s: %w", x.file, err)
		}
		total += cw.n
	}
	return total, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// accounting counts the traced arrivals of every scenario collector and
// checks that each admitted job ended exactly once, completed or failed.
// It needs every job sampled, which holds while each scenario stays
// under the collector's reservoir size.
type accounting struct {
	arrivals, completed, failed, rejected int
	unsampled, unterminated               []string
}

func account(regs []*telemetry.Registry) accounting {
	var a accounting
	for _, reg := range regs {
		for _, name := range reg.Names() {
			a.collector(name, reg.Get(name))
		}
	}
	return a
}

func (a *accounting) collector(name string, c *telemetry.Collector) {
	if c.SampledJobs() != c.SeenJobs() || c.Dropped() != 0 {
		a.unsampled = append(a.unsampled, name)
	}
	ends := make(map[telemetry.SpanID]int)
	for _, ev := range c.Events() {
		switch ev.Kind {
		case telemetry.KindReject:
			a.rejected++
			a.arrivals++
		case telemetry.KindComplete:
			ends[ev.Span]++
			a.completed++
		case telemetry.KindFail:
			ends[ev.Span]++
			a.failed++
		}
	}
	a.arrivals += c.SeenJobs()
	ok := len(ends) == c.SeenJobs()
	for _, n := range ends {
		ok = ok && n == 1
	}
	if !ok {
		a.unterminated = append(a.unterminated, name)
	}
}

// figuresSimMetrics are the modelled outcomes averaged over the figure
// scenarios of every part that serve both classes (class 0 low, class 1
// high); energy per job is over all completed jobs.
func figuresSimMetrics(parts []*figuresOutcome) map[string]float64 {
	var n, p95Low, p95High, drop, energy float64
	var completed int
	for _, o := range parts {
		for _, s := range o.scenarios {
			energy += s.EnergyJoules
			for _, c := range s.PerClass {
				completed += c.Jobs
			}
			if len(s.PerClass) < 2 {
				continue
			}
			n++
			p95Low += s.PerClass[0].P95ResponseSec
			p95High += s.PerClass[1].P95ResponseSec
			drop += s.PerClass[0].MeanEffectiveDrop
		}
	}
	return map[string]float64{
		"sim_p95_low_s":        p95Low / n,
		"sim_p95_high_s":       p95High / n,
		"sim_energy_j_per_job": energy / float64(completed),
		"sim_low_drop_pct":     100 * drop / n,
	}
}
