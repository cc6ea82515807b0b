package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"dias/internal/telemetry"
)

// TestTelemetryOffInvariance is the zero-perturbation contract: arming
// the telemetry layer must not change a single figure number. The gauge
// sampler interleaves with the event loop instead of scheduling events,
// and every tracer hook is observational, so the traced run's results
// must be deeply equal to the untraced run's — makespan and energy
// included, which would drift first if gauge ticks advanced the clock.
func TestTelemetryOffInvariance(t *testing.T) {
	scale := faultScale()
	plain, err := FaultTolerance(scale)
	if err != nil {
		t.Fatal(err)
	}
	traced := scale
	traced.Telemetry = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
	got, err := FaultTolerance(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("tracing changed the figure:\nplain:\n%s\ntraced:\n%s", plain, got)
	}
	// The run must actually have been traced: spans, events and gauges.
	names := traced.Telemetry.Names()
	if len(names) == 0 {
		t.Fatal("traced run registered no collectors")
	}
	for _, n := range names {
		c := traced.Telemetry.Get(n)
		if c.SeenJobs() == 0 {
			t.Fatalf("collector %q saw no jobs", n)
		}
		if len(c.Events()) == 0 {
			t.Fatalf("collector %q retained no events", n)
		}
		if c.Timeline() == nil || c.Timeline().Len() == 0 {
			t.Fatalf("collector %q has no gauge samples", n)
		}
	}
}

// TestTelemetryFederationOffInvariance covers the federation path, where
// telemetry additionally hooks routing decisions and per-member gauges.
func TestTelemetryFederationOffInvariance(t *testing.T) {
	scale := fedScale()
	plain, err := FederationOutage(scale)
	if err != nil {
		t.Fatal(err)
	}
	traced := scale
	traced.Telemetry = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
	got, err := FederationOutage(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("tracing changed the federation figure:\nplain:\n%s\ntraced:\n%s", plain, got)
	}
	if len(traced.Telemetry.Names()) == 0 {
		t.Fatal("traced run registered no collectors")
	}
}

// TestTelemetryExportWorkerCountInvariance pins the export determinism
// the determinism CI lane enforces end to end: the three export files
// must be byte-identical whether the figure grid ran on one worker or
// eight. Collector seeds derive from run names (not arrival order) and
// every export iterates runs in sorted order, so worker scheduling has
// nothing to perturb.
func TestTelemetryExportWorkerCountInvariance(t *testing.T) {
	exports := func(workers int) (trace, events, timeline []byte) {
		scale := faultScale()
		scale.Workers = workers
		scale.Telemetry = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
		if _, err := FaultTolerance(scale); err != nil {
			t.Fatal(err)
		}
		return writeExports(t, scale.Telemetry)
	}
	t1, e1, l1 := exports(1)
	t8, e8, l8 := exports(8)
	if !bytes.Equal(t1, t8) {
		t.Error("Chrome trace differs between 1 and 8 workers")
	}
	if !bytes.Equal(e1, e8) {
		t.Error("event JSONL differs between 1 and 8 workers")
	}
	if !bytes.Equal(l1, l8) {
		t.Error("gauge timeline differs between 1 and 8 workers")
	}
}

// writeExports renders reg's three export files.
func writeExports(t *testing.T, reg *telemetry.Registry) (trace, events, timeline []byte) {
	t.Helper()
	var tb, eb, lb bytes.Buffer
	if err := reg.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteEventsJSONL(&eb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteTimelineCSV(&lb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), eb.Bytes(), lb.Bytes()
}

// TestFigure11TracedExportsRepeat: Figure 11 runs its limited and unlimited
// DiAS scenarios under the same names, concurrently at Workers 2. Each run
// must trace into a collector of its own — a shared one is written from two
// goroutines, which the race detector reports and which makes the exports
// vary between runs — so two traced runs give byte-identical exports.
func TestFigure11TracedExportsRepeat(t *testing.T) {
	exports := func() (names []string, trace, events, timeline []byte) {
		scale := Scale{Jobs: 20, WarmupFraction: 0.1, Seed: 3, Workers: 2}
		scale.Telemetry = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
		if _, err := Figure11(scale); err != nil {
			t.Fatal(err)
		}
		trace, events, timeline = writeExports(t, scale.Telemetry)
		return scale.Telemetry.Names(), trace, events, timeline
	}
	names, t1, e1, l1 := exports()
	want := []string{"NPS", "P", "limited/DiAS(0,10)", "limited/DiAS(0,20)", "unlimited/DiAS(0,10)", "unlimited/DiAS(0,20)"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("collectors = %q, want %q", names, want)
	}
	_, t2, e2, l2 := exports()
	if !bytes.Equal(t1, t2) {
		t.Error("Chrome trace differs between two runs")
	}
	if !bytes.Equal(e1, e2) {
		t.Error("event JSONL differs between two runs")
	}
	if !bytes.Equal(l1, l2) {
		t.Error("gauge timeline differs between two runs")
	}
}
