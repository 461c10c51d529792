package telemetry

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins a CPU profile written to cpuPath and returns the
// function that ends it and then writes a heap profile to memPath; call it
// once, after the work to be profiled. An empty path skips that profile, so
// a command passes its -cpuprofile and -memprofile flag values as they are.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	stopCPU := func() error { return nil }
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() error { pprof.StopCPUProfile(); return f.Close() }
	}
	return func() error {
		if err := stopCPU(); err != nil || memPath == "" {
			return err
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // so the profile counts the run's last allocations too
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		return f.Close()
	}, nil
}
