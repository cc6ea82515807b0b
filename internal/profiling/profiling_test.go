package profiling

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dias/internal/experiments"
	"dias/internal/telemetry"
)

// render runs figure 7 at a small scale, traced, and returns its text and
// its Chrome trace.
func render(t *testing.T) (text, trace []byte) {
	t.Helper()
	d, ok := experiments.Lookup("7")
	if !ok {
		t.Fatal("figure 7 not registered")
	}
	scale := experiments.Scale{Jobs: 20, WarmupFraction: 0.1, Seed: 3, Workers: 2}
	scale.Telemetry = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
	out, err := d.Run(d.Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := scale.Telemetry.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	return []byte(out.Text.String()), tb.Bytes()
}

// TestProfilingChangesNoOutput: a run under both profiles prints the same
// figure and trace as an unprofiled run, and both profile files are
// written.
func TestProfilingChangesNoOutput(t *testing.T) {
	wantText, wantTrace := render(t)

	dir := t.TempDir()
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	gotText, gotTrace := render(t)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotText, wantText) {
		t.Errorf("figure text differs under profiling:\n%s\nwant\n%s", gotText, wantText)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Error("Chrome trace differs under profiling")
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (%v)", p, err)
		}
	}
}

// TestStartRejectsBadPath: an unwritable path fails at Start, before the
// run, and leaves no CPU profile running.
func TestStartRejectsBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "x.prof")
	if _, err := (Flags{Mem: bad}).Start(); err == nil {
		t.Fatal("bad -memprofile path accepted")
	}
	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	if _, err := (Flags{CPU: cpu, Mem: bad}).Start(); err == nil {
		t.Fatal("bad -memprofile path accepted with -cpuprofile")
	}
	// The failed Start stopped its CPU profile, so a new one can start.
	stop, err := (Flags{CPU: cpu}).Start()
	if err != nil {
		t.Fatalf("CPU profile still running after a failed Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
