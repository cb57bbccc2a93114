// Package cli holds the shared command-line plumbing of the repro
// binaries: fail-fast validation of nonsensical flag values (rejected with
// usage and exit code 2, like flag-parse errors), -timeout contexts,
// -progress printers, the optional -pprof debug server, and the -json /
// -trace / -metrics machine-readable output bundle.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/solve"
)

// exit is swapped out by tests; production code always calls os.Exit.
var exit = os.Exit

// stderr is swapped out by tests to capture warnings and progress lines.
var stderr io.Writer = os.Stderr

// Positive rejects flag values that must be at least one (trial counts,
// set sizes): a zero-trial simulation or zero-size table is a typo, not a
// request.
func Positive(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s must be ≥ 1 (got %d)", name, v)
	}
	return nil
}

// NonNegative rejects negative values of flags where zero is meaningful
// (e.g. -workers 0 = all cores).
func NonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s must be ≥ 0 (got %d)", name, v)
	}
	return nil
}

// Range rejects values outside [lo, hi] — used for size exponents whose
// upper end would overflow or exhaust memory long before producing output.
func Range(name string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("-%s must be in [%d, %d] (got %d)", name, lo, hi, v)
	}
	return nil
}

// PowerOfTwo rejects network sizes that are not a power of two ≥ 2, the
// sizes Bn is built for, turning the constructor's panic into a usage
// error. Wn needs n ≥ 4, which a command that builds it checks itself.
func PowerOfTwo(name string, v int) error {
	if v < 2 || v&(v-1) != 0 {
		return fmt.Errorf("-%s must be a power of two ≥ 2 (got %d)", name, v)
	}
	return nil
}

// Probability rejects rates outside [0, 1) — a drop or dead-link
// probability of exactly 1 would retry (or kill every link) forever.
func Probability(name string, v float64) error {
	if v < 0 || v >= 1 {
		return fmt.Errorf("-%s must be in [0, 1) (got %g)", name, v)
	}
	return nil
}

// Validate prints every non-nil error and the flag usage to stderr, then
// exits with code 2 (the flag package's own parse-failure code). With no
// failures it returns silently.
func Validate(errs ...error) {
	bad := false
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", os.Args[0], err)
			bad = true
		}
	}
	if !bad {
		return
	}
	fmt.Fprintln(stderr, "usage:")
	printUsage()
	exit(2)
}

// printUsage is swapped out by tests (flag.Usage writes to the real
// stderr via the default FlagSet, which tests cannot intercept).
var printUsage = defaultUsage

func defaultUsage() { flag.Usage() }

// LongRun bundles the shared flags of the long-running table commands.
// Register it before flag.Parse, Start after.
type LongRun struct {
	Timeout  *time.Duration
	Progress *bool
	Pprof    *string
}

// RegisterLongRun declares -timeout, -progress and -pprof on the default
// flag set.
func RegisterLongRun() *LongRun {
	return &LongRun{
		Timeout:  flag.Duration("timeout", 0, "wall-clock budget; on expiry solvers return best-so-far results marked non-exact (0 = unlimited)"),
		Progress: flag.Bool("progress", false, "print solver progress snapshots to stderr"),
		Pprof:    flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)"),
	}
}

// Start applies the parsed LongRun flags: it launches the pprof server (if
// requested) and returns the deadline context plus the progress callback
// (nil when -progress is off). The caller must defer cancel.
func (l *LongRun) Start() (context.Context, context.CancelFunc, func(solve.Progress)) {
	StartPprof(*l.Pprof)
	ctx, cancel := WithTimeout(*l.Timeout)
	return ctx, cancel, ProgressPrinter(*l.Progress)
}

// WithTimeout returns a context carrying the -timeout deadline; d ≤ 0
// means no deadline (plain Background). The cancel func must be deferred
// either way.
func WithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), d)
}

// ProgressPrinter returns a -progress callback writing one status line per
// snapshot to stderr, or nil when disabled — so callers can pass the
// result straight into an options struct. Lines carry the solver label
// (Progress.Solver) and are serialized under a mutex: concurrent solvers
// (the parallel exact engines, the trial workers) share one callback, and
// unserialized writes interleave mid-line.
func ProgressPrinter(enabled bool) func(solve.Progress) {
	if !enabled {
		return nil
	}
	var mu sync.Mutex
	return func(p solve.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Solver != "" {
			fmt.Fprintf(stderr, "progress: [%s] %s\n", p.Solver, p)
			return
		}
		fmt.Fprintf(stderr, "progress: %s\n", p)
	}
}

// pprofMux builds the diagnostic mux: the net/http/pprof handlers plus
// /debug/metrics. A dedicated mux (rather than nil = DefaultServeMux)
// keeps stray http.Handle registrations elsewhere in the process from
// leaking onto the diagnostic port.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/metrics", obs.Default)
	return mux
}

// StartPprof serves net/http/pprof plus /debug/metrics on addr (e.g.
// "localhost:6060") when non-empty. The listener is bound synchronously so
// a bad address or an occupied port surfaces as an immediate stderr
// warning instead of a silently dead goroutine; failures are reported, not
// fatal, because profiling is a diagnostic aid, never a reason to abort
// the computation. The server carries a ReadHeaderTimeout so one stalled
// client cannot pin the diagnostic port open indefinitely (pprof profile
// responses themselves stream for their requested duration, so there is
// deliberately no WriteTimeout).
func StartPprof(addr string) {
	if addr == "" {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "warning: pprof server on %s failed to start: %v\n", addr, err)
		return
	}
	srv := &http.Server{
		Handler:           pprofMux(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := srv.Serve(ln); err != nil {
			fmt.Fprintf(stderr, "warning: pprof server: %v\n", err)
		}
	}()
}

// Output bundles the machine-readable output flags shared by every
// command: -json (run manifest), -trace (JSONL solver trace) and -metrics
// (end-of-run registry dump). Register it before flag.Parse, Start after,
// and Finish once the command's tables are built.
type Output struct {
	JSON    *string
	Trace   *string
	Metrics *bool

	command   string
	begin     time.Time
	tracer    *obs.Tracer
	traceFile *os.File
}

// RegisterOutput declares -json, -trace and -metrics on the default flag
// set.
func RegisterOutput() *Output {
	return &Output{
		JSON:    flag.String("json", "", "write a machine-readable run manifest (JSON) to this path"),
		Trace:   flag.String("trace", "", "write solver trace events (JSONL) to this path"),
		Metrics: flag.Bool("metrics", false, "dump the metrics registry to stderr at exit"),
	}
}

// Start opens the trace sink (if -trace was given) and stamps the run
// start. An unwritable trace path is fatal: the user asked for the file.
func (o *Output) Start(command string) {
	o.command = command
	o.begin = time.Now()
	if *o.Trace == "" {
		return
	}
	f, err := os.Create(*o.Trace)
	if err != nil {
		fmt.Fprintf(stderr, "%s: -trace: %v\n", os.Args[0], err)
		exit(1)
		return
	}
	o.traceFile = f
	o.tracer = obs.NewTracer(f)
}

// Tracer returns the -trace tracer, or nil when tracing is off (safe to
// pass straight into options structs).
func (o *Output) Tracer() *obs.Tracer { return o.tracer }

// Finish completes the run: it stamps the manifest with the command line,
// flag values, environment, elapsed time and the metrics snapshot, writes
// it to -json (when requested), closes the trace sink, and dumps the
// registry to stderr under -metrics. A nil manifest skips the -json path
// (callers that failed before producing tables still flush their trace).
// Write failures are fatal: silent partial output is worse than an exit
// code.
func (o *Output) Finish(m *obs.Manifest) {
	if m != nil && *o.JSON != "" {
		m.Args = append([]string(nil), os.Args[1:]...)
		m.Flags = flagValues()
		m.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		m.ElapsedMS = float64(time.Since(o.begin)) / float64(time.Millisecond)
		env := obs.CaptureEnvironment()
		m.Env = &env
		m.Metrics = obs.Default.Snapshot()
		if err := m.WriteFile(*o.JSON); err != nil {
			fmt.Fprintf(stderr, "%s: -json: %v\n", os.Args[0], err)
			exit(1)
		}
	}
	if o.traceFile != nil {
		if err := o.tracer.Err(); err != nil {
			fmt.Fprintf(stderr, "warning: -trace: %v\n", err)
		}
		if err := o.traceFile.Close(); err != nil {
			fmt.Fprintf(stderr, "warning: -trace: %v\n", err)
		}
	}
	if *o.Metrics {
		fmt.Fprintf(stderr, "metrics (%s):\n", o.command)
		if err := obs.Default.WriteJSON(stderr); err != nil {
			fmt.Fprintf(stderr, "warning: -metrics: %v\n", err)
		}
	}
}

// Manifest starts a run manifest for the command named in Start.
func (o *Output) Manifest() *obs.Manifest { return obs.NewManifest(o.command) }

// flagValues snapshots every registered flag's current value (defaults
// included), making manifests self-describing.
func flagValues() map[string]string {
	flags := make(map[string]string)
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		flags[f.Name] = f.Value.String()
	})
	return flags
}
