// Package profutil wires runtime/pprof behind the -cpuprofile/-memprofile
// flags of cmd/experiments, so hot paths can be inspected with
// `go tool pprof` without ad-hoc instrumentation.
// DebugServer does the same for the long-running daemons: an opt-in
// net/http/pprof listener behind battschedd's -debug-addr flag.
package profutil

import (
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rpprof "runtime/pprof"
)

// Start begins profiling as requested: cpuPath starts a CPU profile, memPath
// arranges for an allocation profile to be written when the returned stop
// function runs. Either path may be empty to disable that profile. Call stop
// exactly once, on the success path before the process exits (a profile is
// worthless for a run that died anyway).
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := rpprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			rpprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			// The allocs profile keeps cumulative allocation sites even for
			// freed objects — what the zero-alloc engine work cares about;
			// an up-to-date GC cycle makes the in-use numbers meaningful too.
			runtime.GC()
			if err := rpprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// DebugServer starts an HTTP server on addr serving the net/http/pprof
// endpoints under /debug/pprof/ — live profiling for long-running daemons
// (battschedd -debug-addr). The handlers are mounted on a private mux, NOT
// http.DefaultServeMux, so the debug surface exists only on this listener
// and never leaks onto the daemon's API port. The server runs until the
// process exits; the returned listener reports the bound address (useful
// with ":0"). An empty addr is a no-op returning (nil, nil).
func DebugServer(addr string) (net.Listener, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	return ln, nil
}
