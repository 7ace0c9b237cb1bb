package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/batcher"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/workload"
)

// call is one search a client sends.
type call struct {
	user     string
	keywords []string
}

// closedSpec is a closed-loop workload: one client with no think time
// replays a workload's query suite round after round across a few users,
// each episode against a freshly built in-process service. Episodes repeat
// the same seeded calls, so their answers and work counters must agree.
type closedSpec struct {
	build func() (*workload.Workload, error)
	// config is the measured service; spillDir is the run's scratch
	// directory.
	config func(spillDir string) service.Config
	// reference answers the calls without the mechanism the workload
	// stresses; every served answer must equal it.
	reference     func(calls []call) ([]string, error)
	referenceName string
}

// systemSeed seeds the system under test: the simulated sources' delay
// models and the per-user coefficient streams. It is part of the system's
// configuration, not of the workload, so it stays fixed; --seed draws the
// inputs — user names, call order, arrival times and keywords.
const systemSeed = 1

// serialConfig is the serving configuration every closed-loop workload
// starts from: one shard, one worker, every arrival admitted at once.
func serialConfig() service.Config {
	return service.Config{Seed: systemSeed, Shards: 1, Workers: 1, BatchWindow: 0}
}

// An episode sends its workload's query suite for closedRounds rounds
// across closedUsers users. Each round is a fresh shuffle: a workload
// whose per-search latencies spread widely (Pfam) has a median that moves
// with the call order unless an episode averages over several orders.
const closedRounds, closedUsers = 5, 3

// closedCalls derives an episode's calls from the seed: each round sends
// the suite × users in a seeded order. The users' names, and so their
// coefficient streams, are fixed; the seed decides which search draws which
// coefficients.
func closedCalls(w *workload.Workload, seed uint64, short bool) []call {
	var suite [][]string
	for _, sub := range w.Submissions {
		suite = append(suite, sub.UQ.Keywords)
	}
	rounds, users := closedRounds, closedUsers
	if short {
		suite, rounds, users = suite[:3], 2, 2
	}
	rng := dist.New(seed*1_000_003 + 17)
	var calls []call
	for r := 0; r < rounds; r++ {
		var round []call
		for _, kw := range suite {
			for u := 0; u < users; u++ {
				round = append(round, call{user: fmt.Sprintf("user%d", u), keywords: kw})
			}
		}
		for i := len(round) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			round[i], round[j] = round[j], round[i]
		}
		calls = append(calls, round...)
	}
	return calls
}

// episode is one closed-loop pass over the calls on a fresh service.
type episode struct {
	setup time.Duration
	wall  time.Duration
	// Per call, in call order: latency and engine latency (ms), the
	// generator's own lateness — the gap from the previous return to this
	// send (ms) — the answer digest ("" on error) and the error.
	lat, vlat, late []float64
	digests         []string
	errs            []error
	peakMB          float64
	stats           service.Stats
}

func (e *episode) completed() int {
	n := 0
	for _, err := range e.errs {
		if err == nil {
			n++
		}
	}
	return n
}

// extraSetups is how many set-ups a run times before measuring, beside the
// one each episode pays, so that setup_s is a median of many.
const extraSetups = 15

// startService builds the workload and the service, the timed set-up, and
// returns the service and how long that took.
func startService(spec closedSpec, spillDir string) (*service.Service, time.Duration, error) {
	t0 := time.Now()
	w, err := spec.build()
	if err != nil {
		return nil, 0, err
	}
	svc := service.New(w, spec.config(spillDir))
	return svc, time.Since(t0), nil
}

// timeSetup times one set-up from a collected heap.
func timeSetup(spec closedSpec, spillDir string) (time.Duration, error) {
	runtime.GC()
	svc, d, err := startService(spec, spillDir)
	if err != nil {
		return 0, err
	}
	return d, svc.Close()
}

// runEpisode sets up a fresh service, then sends the calls one after
// another.
func runEpisode(spec closedSpec, spillDir string, calls []call) (*episode, error) {
	svc, setup, err := startService(spec, spillDir)
	if err != nil {
		return nil, err
	}
	ep := &episode{setup: setup}
	ctx := context.Background()
	mem := startPeakSampler()
	start := time.Now()
	prev := start
	for _, c := range calls {
		t := time.Now()
		ep.late = append(ep.late, ms(t.Sub(prev)))
		res, err := svc.Search(ctx, c.user, c.keywords, 0)
		d := time.Since(t)
		prev = t.Add(d)
		ep.errs = append(ep.errs, err)
		ep.lat = append(ep.lat, ms(d))
		if err != nil {
			ep.vlat = append(ep.vlat, 0)
			ep.digests = append(ep.digests, "")
			continue
		}
		ep.vlat = append(ep.vlat, ms(res.EngineLatency))
		ep.digests = append(ep.digests, answerDigest(fleet.ViewOf(res)))
	}
	ep.wall = time.Since(start)
	ep.peakMB = mem.stopMB()
	ep.stats = svc.Stats()
	if err := svc.Close(); err != nil {
		return nil, err
	}
	return ep, nil
}

// runClosed is the untraced run: extra timed set-ups, episodes until the
// measuring time is up, then the reference pass that checks every answer.
func runClosed(spec closedSpec, o options, r *report) error {
	dir, err := os.MkdirTemp(o.workdir, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := spec.build()
	if err != nil {
		return err
	}
	calls := closedCalls(w, o.seed, o.short)

	var setups []float64
	for i := 0; i < extraSetups; i++ {
		d, err := timeSetup(spec, dir)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	const minEpisodes = 3
	var eps []*episode
	start := time.Now()
	for len(eps) < minEpisodes || time.Since(start) < o.seconds {
		// Collect the previous episode's garbage so its footprint does not
		// stack on this one's; the freed pages stay with the process, as
		// they would in a long-running server.
		runtime.GC()
		ep, err := runEpisode(spec, dir, calls)
		if err != nil {
			return err
		}
		eps = append(eps, ep)
	}
	ref, err := spec.reference(calls)
	if err != nil {
		return fmt.Errorf("perfbench: reference pass: %w", err)
	}

	var lat [][]float64
	var vlat, peaks, rates, goodRates []float64
	completed, errs, wrong := 0, 0, 0
	sameWork := true
	for _, ep := range eps {
		setups = append(setups, ep.setup.Seconds())
		peaks = append(peaks, ep.peakMB)
		good := 0
		epLat := make([]float64, len(ep.lat))
		for i, err := range ep.errs {
			epLat[i] = math.NaN()
			if err != nil {
				errs++
				continue
			}
			completed++
			epLat[i] = ep.lat[i]
			vlat = append(vlat, ep.vlat[i])
			if ep.digests[i] != ref[i] {
				wrong++
				continue
			}
			good++
		}
		lat = append(lat, epLat)
		rates = append(rates, float64(ep.completed())/ep.wall.Seconds())
		goodRates = append(goodRates, float64(good)/ep.wall.Seconds())
		sameWork = sameWork && ep.stats.Work == eps[0].stats.Work
	}
	r.attempted = len(calls) * len(eps)
	r.failed = errs + wrong
	r.check("answers", wrong == 0 && errs == 0,
		fmt.Sprintf("%d searches against %s: %d wrong, %d errors", r.attempted, spec.referenceName, wrong, errs))
	r.check("episodes repeat", sameWork, fmt.Sprintf("%d episodes, identical work counters", len(eps)))
	perCall := callMedians(lat)
	r.note("samples: %d searches over %d episodes of %d; failed_frac %.6g; latency percentiles over %d per-call medians",
		completed, len(eps), len(calls), failedFrac(r.attempted, r.failed), len(perCall))
	for i, ep := range eps {
		r.note("episode %d: set-up %v, %.4g searches/s, p50 %.4g ms, p99 %.4g ms, peak %.4g MB", i, ep.setup.Round(time.Microsecond),
			rates[i], percentile(ep.lat, 0.50), percentile(ep.lat, 0.99), ep.peakMB)
	}

	// Latencies are per-call medians and rates medians over episodes, so a
	// stall or a slow stretch of the host that hits fewer than half of the
	// episodes cannot move them.
	r.set("setup_s", median(setups))
	r.set("search_p50_ms", percentile(perCall, 0.50))
	r.set("search_p99_ms", percentile(perCall, 0.99))
	r.set("searches_per_s", median(rates))
	r.set("goodput_qps", median(goodRates))
	// One client with no think time keeps the single engine busy, so the
	// completed rate is the rate at which an open loop would saturate it.
	r.set("knee_qps", median(rates))
	r.set("source_tuples_per_search", perSearch(float64(eps[0].stats.Work.TuplesConsumed()), len(calls)))
	r.set("virtual_latency_mean_ms", mean(vlat))
	r.set("peak_rss_mb", median(peaks))
	return nil
}

// atcCQReference answers the calls under ATC-CQ, the paper's no-sharing
// configuration: every conjunctive query runs in its own plan graph, so no
// state, stream or plan is shared across searches. The queries are expanded
// with the service's own expander in call order, so each carries the
// scoring coefficients the served search had.
func atcCQReference(build func() (*workload.Workload, error)) func([]call) ([]string, error) {
	return func(calls []call) ([]string, error) {
		w, err := build()
		if err != nil {
			return nil, err
		}
		exp := service.NewExpander(w, serialConfig())
		subs := make([]batcher.Submission, len(calls))
		ids := make([]string, len(calls))
		for i, c := range calls {
			uq, err := exp.Expand(c.user, c.keywords, 0)
			if err != nil {
				return nil, err
			}
			subs[i] = batcher.Submission{At: time.Duration(i) * time.Millisecond, UQ: uq}
			ids[i] = uq.ID
		}
		rep, err := exec.Run(w.Fleet, w.Catalog, subs, exec.Options{Strategy: exec.StrategyCQ, Seed: systemSeed})
		if err != nil {
			return nil, err
		}
		return reportDigests(rep, ids), nil
	}
}

// unboundedReference answers the calls on a serial service with no memory
// budget, so nothing is ever evicted or spilled.
func unboundedReference(build func() (*workload.Workload, error)) func([]call) ([]string, error) {
	return func(calls []call) ([]string, error) {
		w, err := build()
		if err != nil {
			return nil, err
		}
		svc := service.New(w, serialConfig())
		defer svc.Close()
		out := make([]string, len(calls))
		for i, c := range calls {
			res, err := svc.Search(context.Background(), c.user, c.keywords, 0)
			if err != nil {
				return nil, err
			}
			out[i] = answerDigest(fleet.ViewOf(res))
		}
		return out, nil
	}
}
