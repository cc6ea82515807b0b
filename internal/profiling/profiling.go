// Package profiling gives every command-line tool the same -cpuprofile and
// -memprofile flags: pprof profiles of a whole run (the CPU samples, and
// every allocation sampled since start) for `go tool pprof`, without a
// go-test harness. Profiling changes no output.
package profiling

import (
	"errors"
	"flag"
	"os"
	"runtime/pprof"
)

// Flags holds the profile paths; an empty path skips its profile.
type Flags struct {
	CPU, Mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run here (empty = skip)")
	fs.StringVar(&f.Mem, "memprofile", "", "write an allocation profile of the run here (empty = skip)")
}

// Start starts CPU profiling and opens the allocation profile's file, both
// up front so a bad path fails before the run does any work. The returned
// stop ends the CPU profile and writes the allocation profile; call it
// once, after the run.
func (f Flags) Start() (stop func() error, err error) {
	var cpuF, memF *os.File
	if f.CPU != "" {
		if cpuF, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	if f.Mem != "" {
		if memF, err = os.Create(f.Mem); err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpuF != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuF.Close())
		}
		if memF != nil {
			errs = append(errs, pprof.Lookup("allocs").WriteTo(memF, 0), memF.Close())
		}
		return errors.Join(errs...)
	}, nil
}
