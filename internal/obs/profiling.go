package obs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// StartProfiles starts the Go runtime profilers selected by non-empty paths
// — a CPU profile, a heap profile (written at stop), and a runtime
// execution trace — and returns a stop function that finalizes all of them.
// The stop function is safe to call exactly once; it reports every error it
// met, each prefixed with its flag's name. With all paths empty it is a no-op
// that returns a trivial stop, so CLIs can call it unconditionally.
func StartProfiles(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var stops []func() error
	stopAll := func() error {
		var errs []error
		for _, s := range stops {
			errs = append(errs, s())
		}
		return errors.Join(errs...)
	}
	for _, p := range []struct {
		flag, path string
		start      func(io.Writer) error
		stop       func()
	}{
		{"cpuprofile", cpuPath, pprof.StartCPUProfile, pprof.StopCPUProfile},
		{"exectrace", tracePath, trace.Start, trace.Stop},
	} {
		if p.path == "" {
			continue
		}
		f, err := os.Create(p.path)
		if err == nil {
			if err = p.start(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			stopAll()
			return nil, fmt.Errorf("%s: %w", p.flag, err)
		}
		stops = append(stops, func() error { p.stop(); return flagErr(p.flag, f.Close()) })
	}
	if memPath != "" {
		stops = append(stops, func() error {
			f, err := os.Create(memPath)
			if err == nil {
				runtime.GC() // materialize up-to-date allocation stats
				err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			return flagErr("memprofile", err)
		})
	}
	return stopAll, nil
}

// flagErr prefixes a non-nil err with the flag that asked for the file.
func flagErr(flag string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", flag, err)
	}
	return nil
}
