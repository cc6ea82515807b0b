// dias-hypotheses runs the committed behavioral hypotheses and writes
// (or verifies) their FINDINGS files.
//
//	dias-hypotheses [-run all|ID[,ID...]] [-list] [-check]
//	                [-dir hypotheses] [-workers W]
//	                [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// Default mode regenerates <dir>/<id>/FINDINGS.md for every selected
// hypothesis plus the <dir>/README.md index (index only when the full set
// runs, so a partial -run cannot write a partial index). -check runs the
// same grids but compares the regenerated content byte for byte against
// the committed files instead of writing; any drift — a flipped verdict,
// a shifted latency table — exits 1 with the offending paths. That makes
// the committed findings a CI regression surface: behavior changes must
// either be intentional (regenerate and review the diff) or they fail
// the lane.
//
// -run accepts full IDs (h2-token-bucket-mechanism) or the short hN
// prefix. Output is deterministic for a fixed module state: fixed seeds,
// order-preserving worker pool, no timestamps or environment in the
// rendered text.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run, as
// on dias-experiments; they change no output.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dias/internal/hypotheses"
	"dias/internal/profiling"
)

func main() {
	run := flag.String("run", "all", "hypotheses to run: 'all' or comma-separated IDs (full ID or hN prefix)")
	list := flag.Bool("list", false, "print the hypothesis catalogue and exit")
	check := flag.Bool("check", false, "verify committed findings instead of writing: re-run and byte-compare")
	dir := flag.String("dir", "hypotheses", "directory holding <id>/FINDINGS.md and README.md")
	workers := flag.Int("workers", 0, "concurrent simulation runs (0 = one per CPU core); does not affect output bytes")
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()

	specs := hypotheses.All()
	if *list {
		listSpecs(specs)
		return
	}
	selected, full, err := selectSpecs(specs, *run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dias-hypotheses:", err)
		os.Exit(2)
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dias-hypotheses:", err)
		os.Exit(2)
	}
	err = runAll(selected, full, *dir, *check, *workers)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dias-hypotheses:", err)
		os.Exit(1)
	}
}

func listSpecs(specs []hypotheses.Spec) {
	fmt.Println("Registered hypotheses (run order under -run all):")
	for _, s := range specs {
		fmt.Printf("  %-34s [%s] %s\n", s.ID, s.Family, s.Title)
	}
}

// selectSpecs resolves -run into the spec subset, reporting whether the
// full set was selected (which gates index generation/verification).
func selectSpecs(specs []hypotheses.Spec, run string) ([]hypotheses.Spec, bool, error) {
	want := make(map[string]bool)
	for _, id := range strings.Split(run, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	if want["all"] {
		return specs, true, nil
	}
	var out []hypotheses.Spec
	for _, s := range specs {
		short := s.ID[:strings.IndexByte(s.ID, '-')]
		if want[s.ID] || want[short] {
			out = append(out, s)
			delete(want, s.ID)
			delete(want, short)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, false, fmt.Errorf("unknown hypothesis id(s) %q (see -list)", strings.Join(unknown, ","))
	}
	if len(out) == 0 {
		return nil, false, fmt.Errorf("no hypothesis selected in %q", run)
	}
	return out, len(out) == len(specs), nil
}

func runAll(specs []hypotheses.Spec, full bool, dir string, check bool, workers int) error {
	opts := hypotheses.Options{Workers: workers}
	results := make([]*hypotheses.Result, 0, len(specs))
	var stale []string
	for _, spec := range specs {
		res, err := hypotheses.Run(context.Background(), spec, opts)
		if err != nil {
			return err
		}
		results = append(results, res)
		path := filepath.Join(dir, spec.ID, "FINDINGS.md")
		content := hypotheses.Render(res)
		if check {
			if same, err := matches(path, content); err != nil {
				return err
			} else if !same {
				stale = append(stale, path)
			}
		} else {
			if err := writeFile(path, content); err != nil {
				return err
			}
		}
		fmt.Printf("%-34s %s\n", spec.ID, res.Verdict)
	}
	if full {
		path := filepath.Join(dir, "README.md")
		content := hypotheses.RenderIndex(results)
		if check {
			if same, err := matches(path, content); err != nil {
				return err
			} else if !same {
				stale = append(stale, path)
			}
		} else {
			if err := writeFile(path, content); err != nil {
				return err
			}
		}
	}
	if len(stale) > 0 {
		return fmt.Errorf("findings drifted from committed state:\n  %s\nregenerate with 'make hypotheses' and review the diff",
			strings.Join(stale, "\n  "))
	}
	if check {
		fmt.Println("findings match committed state")
	}
	return nil
}

// matches reports whether path's content equals want byte for byte. A
// missing file is a mismatch, not an error: -check's job is exactly to
// catch findings that were never (re)generated.
func matches(path, want string) (bool, error) {
	got, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return string(got) == want, nil
}

func writeFile(path, content string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(content), 0o644)
}
