// Command perfbench is the serving benchmark of the keyword-search system:
// one command runs a named workload from a seed, prints every metric by
// name with its unit, checks every answer, and ends with a one-line JSON
// result. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload gus_repeat --seed 1 --seconds 40 --trace 0
//
// Workloads (load comes from this one process, GOMAXPROCS at most 2):
//
//   - gus_repeat: a closed loop with one client against an in-process
//     service (1 shard, 1 worker, no batch window, unbounded state)
//     replaying the GUS instance-1 suite (15 two-keyword queries) for 5
//     rounds across 3 users per episode. Warm rounds are optimizer-bound,
//     so candidate generation and mqo changes show here. Answers are
//     checked against ATC-CQ, the paper's configuration that shares
//     nothing.
//   - pfam_spill: the same loop over the Pfam proxy (larger relations, 4
//     conjunctive queries per query), with a 2,000-row memory
//     budget and a spill directory, so every round evicts and revives:
//     state-layer grafting, spilling and revival dominate. Answers are
//     checked against the unbounded service, since spilling must not
//     change them.
//   - gus_open_fleet: seeded Poisson arrivals, a fresh user each, at a
//     frozen ladder of rates (25, 50, 75, 100 per second) against a
//     front-end over 2 shard servers on loopback HTTP, each with a 5 ms
//     batch window and a 250 ms admission deadline, which is the latency
//     limit. Keywords come from the GUS suite plus its overlapping
//     variants. Admission batching, routing and the JSON wire sit on the
//     critical path only here. Every served answer is checked against an
//     unloaded serial ATC-CQ pass over the same arrivals.
//
// End-to-end metrics (--trace 0): setup_s is the median time from building
// the workload to a service or fleet that accepts its first search;
// search_p50_ms and search_p99_ms are nearest-rank percentiles of
// per-search wall latency computed from the raw samples (closed loop: call to
// return, each call taken at its median over the run's episodes, which all
// send the same calls; open loop: from the due send time, at the 25/s
// reference rate); searches_per_s is completed
// searches per wall second (closed loop: the median over episodes);
// goodput_qps is correct answers per wall second (open loop: correct and
// within the limit, at the 100/s overload rate);
// knee_qps is the highest rate sustained with ≥99% of sent searches within
// the limit (open loop: interpolated on the ladder; closed loop: one client
// with no think time saturates the engine, so it is the completed rate);
// source_tuples_per_search is stream plus probe tuples read from the
// simulated sources per completed search (open loop: since the fleet
// started, warm-up included); virtual_latency_mean_ms is the
// mean engine-clock latency from admission to finish, the paper's
// response time (its distribution is a handful of plateaus, one per warm
// query, so a median hops between them with the call order while the mean
// moves only with the work); peak_rss_mb is the peak memory the process
// holds from the system (the Go runtime's mapped memory less what it
// returned) while one episode or the ladder runs, sampled every 5 ms; a
// closed loop reports the median over its episodes.
//
// Per-layer metrics (--trace 1) come from a separate run that drives the
// same seeded searches through the public calls a shard makes, timed from
// this program (see layered.go), through a counting transport on the fleet's
// shard clients, and from the Go runtime's counters. A traced run fails
// unless its answers and work counters equal an untraced pass's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// short shrinks every workload to a tiny instance (the self-tests).
	short bool
	// workdir holds the run's spill files.
	workdir string
}

// pfamBudget is pfam_spill's global memory budget in rows: far below the
// ~100k rows a Pfam round keeps in flight, so every round evicts.
const pfamBudget = 2000

func gus1() (*workload.Workload, error) { return workload.GUS(1, workload.GUSScaleDefault()) }

func pfam() (*workload.Workload, error) { return workload.Pfam(workload.PfamScaleDefault()) }

var gusRepeat = closedSpec{
	build:         gus1,
	config:        func(string) service.Config { return serialConfig() },
	reference:     atcCQReference(gus1),
	referenceName: "ATC-CQ (no sharing)",
}

var pfamSpill = closedSpec{
	build: pfam,
	config: func(spillDir string) service.Config {
		cfg := serialConfig()
		cfg.MemoryBudget = pfamBudget
		cfg.SpillDir = spillDir
		return cfg
	},
	reference:     unboundedReference(pfam),
	referenceName: "the unbounded service",
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct{ run, trace func(options, *report) error }{
	"gus_repeat": {
		run:   func(o options, r *report) error { return runClosed(gusRepeat, o, r) },
		trace: func(o options, r *report) error { return traceClosed(gusRepeat, o, r) },
	},
	"pfam_spill": {
		run:   func(o options, r *report) error { return runClosed(pfamSpill, o, r) },
		trace: func(o options, r *report) error { return traceClosed(pfamSpill, o, r) },
	},
	"gus_open_fleet": {run: runOpen, trace: traceOpen},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs the workload and prints its report. It returns
// the process exit code: 0 only when every answer check passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	short := fs.Bool("short", false, "run a tiny instance of the workload")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's spill files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, short: *short, workdir: *workdir}

	r := newReport()
	defs, fn := endToEnd, wl.run
	if o.trace {
		defs, fn = perLayer, wl.trace
	}
	if err := fn(o, r); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if bad := r.missing(defs); len(bad) > 0 {
		fmt.Fprintln(stderr, "perfbench: report does not match the metric list:", bad)
		return 1
	}
	r.note("workload %s, seed %d, %v measuring, GOMAXPROCS %d of %d CPUs",
		*name, o.seed, o.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if err := r.write(stdout, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !r.correct {
		fmt.Fprintln(stderr, "perfbench: answer check failed")
		return 1
	}
	return 0
}

func workloadNames() string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}
