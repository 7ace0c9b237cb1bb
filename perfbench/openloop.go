package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/batcher"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/workload"
)

// rung is one offered rate of the open-loop ladder and its share of the
// measuring time.
type rung struct {
	rate  float64 // arrivals per second
	share float64
}

// The ladder and the latency limit are absolute and frozen: a run never
// derives them from its own measurements, so a capacity gain moves the
// numbers and not the yardstick. On two cores the fleet saturates between
// the third and fourth rung.
var fleetLadder = []rung{
	{rate: 25, share: 0.4}, // the reference rate: latency percentiles
	{rate: 50, share: 0.2},
	{rate: 75, share: 0.2},
	{rate: 100, share: 0.2}, // the overload rate: goodput
}

const (
	refRung      = 0
	overloadRung = 3
	// fleetLimit is the latency limit, and each shard's admission deadline.
	fleetLimit       = 250 * time.Millisecond
	fleetBatchWindow = 5 * time.Millisecond
	fleetMaxPending  = 64
	fleetShards      = 2
	// onTimeTarget is the share of sent searches that must meet the limit
	// for a rung to count as sustained.
	onTimeTarget = 0.99
)

// fleetShardConfig is each shard's service: serial, with a batch window and
// the latency limit as its admission deadline.
func fleetShardConfig() service.Config {
	return service.Config{
		Seed:        systemSeed,
		Workers:     1,
		BatchWindow: fleetBatchWindow,
		Admission:   admission.Config{Deadline: fleetLimit, MaxPending: fleetMaxPending},
	}
}

// arrival is one open-loop search: due at offset at from its rung's start,
// from a user no other arrival shares.
type arrival struct {
	at       time.Duration
	user     string
	keywords []string
}

// fleetPool is the keyword pool: the GUS suite plus each set's overlapping
// variants.
func fleetPool(w *workload.Workload, short bool) [][]string {
	var pool [][]string
	for _, sub := range w.Submissions {
		pool = append(pool, sub.UQ.Keywords)
		pool = append(pool, workload.OverlapVariants(sub.UQ.Keywords)...)
	}
	if short {
		pool = pool[:6]
	}
	return pool
}

// fleetArrivals draws each rung's seeded Poisson arrivals over its share of
// the measuring time, with Zipf-skewed keyword picks from the pool.
func fleetArrivals(pool [][]string, seed uint64, seconds time.Duration) [][]arrival {
	rng := dist.New(seed*7_919 + 3)
	zipf := dist.NewZipf(rng, len(pool), 0.8)
	out := make([][]arrival, len(fleetLadder))
	n := 0
	for ri, rg := range fleetLadder {
		dur := rg.share * seconds.Seconds()
		t := 0.0
		for {
			t += -math.Log(1-rng.Float64()) / rg.rate
			if t >= dur {
				break
			}
			out[ri] = append(out[ri], arrival{
				at:       time.Duration(t * float64(time.Second)),
				user:     fmt.Sprintf("arrival%d-%d", seed, n),
				keywords: pool[zipf.Next()],
			})
			n++
		}
	}
	return out
}

// outcome is what one arrival got.
type outcome struct {
	late time.Duration // actual send minus due time
	lat  time.Duration // due time to return
	err  error
	view *fleet.ResultView
}

// shedReason reports whether err is a shard's admission control refusing
// a search, and why.
func shedReason(err error) (string, bool) {
	var rpc *fleet.RPCError
	if errors.As(err, &rpc) && rpc.Shed() {
		return rpc.Reason, true
	}
	return "", false
}

// runRung offers the rung's arrivals on schedule, each on its own goroutine,
// and returns once every one has settled, with the wall from the rung's
// start to the last settlement.
func runRung(ctx context.Context, front *fleet.Frontend, arr []arrival) ([]outcome, time.Duration) {
	outs := make([]outcome, len(arr))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			v, err := front.Search(ctx, a.user, a.keywords, 0)
			outs[i] = outcome{late: sent.Sub(due), lat: time.Since(due), err: err, view: v}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// ladderRun is one pass up the ladder against a warmed fleet.
type ladderRun struct {
	setups   []float64
	arrivals [][]arrival
	outs     [][]outcome
	walls    []time.Duration
	// tuples is the source tuples the fleet read since it started, and
	// searches the searches it served, warm-up included.
	tuples   int64
	searches int
	peakRSS  float64
	before   goRuntime
	after    goRuntime
	missRate float64
	// occupancy is the mean admission batch size over the ladder.
	occupancy float64
}

// fleetStarts is how many times a run starts the fleet, keeping the last,
// so that setup_s is a median.
const fleetStarts = 5

// runLadder starts the fleet fleetStarts times, warms the last with one
// search per pool entry, then offers the ladder. counter, when non-nil,
// carries the shard RPCs and counts the ladder's.
func runLadder(ctx context.Context, o options, counter *rpcCounter) (*ladderRun, error) {
	w, err := gus1()
	if err != nil {
		return nil, err
	}
	pool := fleetPool(w, o.short)
	lr := &ladderRun{arrivals: fleetArrivals(pool, o.seed, o.seconds)}

	var tr http.RoundTripper
	if counter != nil {
		tr = counter
	}
	var rig *fleetRig
	for i := 0; i < fleetStarts; i++ {
		runtime.GC()
		t0 := time.Now()
		started, err := startFleet(fleetShards, gus1, fleetShardConfig(), tr)
		if err != nil {
			return nil, err
		}
		lr.setups = append(lr.setups, time.Since(t0).Seconds())
		if i < fleetStarts-1 {
			if err := started.close(); err != nil {
				return nil, err
			}
			continue
		}
		rig = started
	}
	defer rig.close()

	for j, kw := range pool {
		// A shed warm-up search only leaves its topic colder; anything else
		// is a failure.
		_, err := rig.front.Search(ctx, fmt.Sprintf("warmup%d-%d", o.seed, j), kw, 0)
		if _, shed := shedReason(err); err != nil && !shed {
			return nil, fmt.Errorf("perfbench: warm-up search: %w", err)
		}
	}
	if counter != nil {
		counter.reset()
	}
	occ0, err := batchTotals(ctx, rig)
	if err != nil {
		return nil, err
	}
	lr.before = readGoRuntime()
	mem := startPeakSampler()
	for _, arr := range lr.arrivals {
		outs, wall := runRung(ctx, rig.front, arr)
		lr.outs = append(lr.outs, outs)
		lr.walls = append(lr.walls, wall)
	}
	lr.after = readGoRuntime()
	lr.peakRSS = mem.stopMB()
	st1 := rig.front.Stats(ctx)
	lr.tuples = st1.Work.TuplesConsumed()
	lr.searches = len(pool)
	for _, outs := range lr.outs {
		for _, oc := range outs {
			if oc.err == nil {
				lr.searches++
			}
		}
	}
	lr.missRate = st1.Router.MissRate
	occ1, err := batchTotals(ctx, rig)
	if err != nil {
		return nil, err
	}
	if n := occ1[0] - occ0[0]; n > 0 {
		lr.occupancy = (occ1[1] - occ0[1]) / n
	}
	return lr, nil
}

// batchTotals sums admission batches and the queries they carried over the
// fleet's shards.
func batchTotals(ctx context.Context, rig *fleetRig) ([2]float64, error) {
	var out [2]float64
	sts, err := rig.shardStats(ctx)
	if err != nil {
		return out, err
	}
	for _, st := range sts {
		b := st.Service.BatchOccupancy
		out[0] += float64(b.Count)
		out[1] += b.Mean * float64(b.Count)
	}
	return out, nil
}

// rungStats summarizes one rung against the reference answers.
type rungStats struct {
	sent, served, onTime, errs, wrong int
	sheds                             map[string]int
	lat, vlat                         []float64
	drain                             time.Duration
}

func (s rungStats) onTimeShare() float64 { return float64(s.onTime) / float64(max(s.sent, 1)) }

// sustained reports whether the rung met the limit: enough sent searches on
// time, and no backlog left settling after the last send.
func (s rungStats) sustained() bool {
	return s.onTimeShare() >= onTimeTarget && s.drain <= fleetLimit
}

func summarizeRung(arr []arrival, outs []outcome, wall time.Duration, ref []string) rungStats {
	s := rungStats{sent: len(arr), sheds: map[string]int{}}
	if len(arr) > 0 {
		s.drain = wall - arr[len(arr)-1].at
	}
	for i, o := range outs {
		if reason, ok := shedReason(o.err); ok {
			s.sheds[reason]++
			continue
		}
		if o.err != nil {
			s.errs++
			continue
		}
		s.served++
		s.lat = append(s.lat, ms(o.lat))
		s.vlat = append(s.vlat, ms(time.Duration(o.view.EngineLatencyNS)))
		if answerDigest(o.view) != ref[i] {
			s.wrong++
			continue
		}
		if o.lat <= fleetLimit {
			s.onTime++
		}
	}
	return s
}

// knee estimates the highest offered rate the fleet sustains. It walks the
// ladder up while rungs are sustained; between the last sustained rung and
// the first that is not, it interpolates the on-time share linearly to
// where it crosses the target. A ladder sustained to the top reads as its
// top rate; one failing at the bottom scales the bottom rate by its
// on-time share.
func knee(rungs []rungStats) float64 {
	last := -1
	for i, s := range rungs {
		if !s.sustained() {
			break
		}
		last = i
	}
	switch {
	case last == len(rungs)-1:
		return fleetLadder[last].rate
	case last < 0:
		return fleetLadder[0].rate * rungs[0].onTimeShare()
	}
	f0, f1 := rungs[last].onTimeShare(), rungs[last+1].onTimeShare()
	r0, r1 := fleetLadder[last].rate, fleetLadder[last+1].rate
	if f1 >= onTimeTarget || f0 <= f1 {
		return r0
	}
	return r0 + (r1-r0)*(f0-onTimeTarget)/(f0-f1)
}

// fleetReference answers every arrival under ATC-CQ, unloaded and serial:
// the arrivals are split in two halves answered side by side, each on its
// own copy of the workload. Every arrival's user is fresh, so expanding
// them in index order gives each the coefficients the fleet gave it.
func fleetReference(arr []arrival) ([]string, error) {
	w, err := gus1()
	if err != nil {
		return nil, err
	}
	exp := service.NewExpander(w, serialConfig())
	subs := make([]batcher.Submission, len(arr))
	ids := make([]string, len(arr))
	for i, a := range arr {
		uq, err := exp.Expand(a.user, a.keywords, 0)
		if err != nil {
			return nil, err
		}
		subs[i] = batcher.Submission{At: time.Duration(i) * time.Millisecond, UQ: uq}
		ids[i] = uq.ID
	}
	half := len(arr) / 2
	parts := [][2]int{{0, half}, {half, len(arr)}}
	digests := make([]string, len(arr))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for p, span := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pw := w
			if p > 0 {
				if pw, errs[p] = gus1(); errs[p] != nil {
					return
				}
			}
			rep, err := exec.Run(pw.Fleet, pw.Catalog, subs[span[0]:span[1]], exec.Options{Strategy: exec.StrategyCQ, Seed: systemSeed})
			if err != nil {
				errs[p] = err
				return
			}
			copy(digests[span[0]:span[1]], reportDigests(rep, ids[span[0]:span[1]]))
		}()
	}
	wg.Wait()
	return digests, errors.Join(errs...)
}

// flatten concatenates the rungs' arrivals.
func flatten(rungs [][]arrival) []arrival {
	var out []arrival
	for _, r := range rungs {
		out = append(out, r...)
	}
	return out
}

// ladderStats checks every served arrival against the reference and
// summarizes each rung.
func ladderStats(lr *ladderRun, ref []string) []rungStats {
	var out []rungStats
	off := 0
	for ri, arr := range lr.arrivals {
		out = append(out, summarizeRung(arr, lr.outs[ri], lr.walls[ri], ref[off:off+len(arr)]))
		off += len(arr)
	}
	return out
}

// runOpen is the untraced gus_open_fleet run.
func runOpen(o options, r *report) error {
	ctx := context.Background()
	lr, err := runLadder(ctx, o, nil)
	if err != nil {
		return err
	}
	ref, err := fleetReference(flatten(lr.arrivals))
	if err != nil {
		return fmt.Errorf("perfbench: reference pass: %w", err)
	}
	rungs := ladderStats(lr, ref)
	served, sheds := r.openOutcomes(rungs)

	var wall time.Duration
	for _, w := range lr.walls {
		wall += w
	}
	ref0, over := rungs[refRung], rungs[overloadRung]
	r.set("setup_s", median(lr.setups))
	r.set("search_p50_ms", percentile(ref0.lat, 0.50))
	r.set("search_p99_ms", percentile(ref0.lat, 0.99))
	r.set("searches_per_s", float64(served)/wall.Seconds())
	r.set("goodput_qps", float64(over.onTime)/lr.walls[overloadRung].Seconds())
	r.set("knee_qps", knee(rungs))
	r.set("source_tuples_per_search", perSearch(float64(lr.tuples), lr.searches))
	r.set("virtual_latency_mean_ms", mean(ref0.vlat))
	r.set("peak_rss_mb", lr.peakRSS)
	r.note("sheds: %d of %d sent; failed_frac (errors, sheds and wrong answers) %.6g",
		sheds, r.attempted, failedFrac(r.attempted, r.failed+sheds))
	return nil
}

// openOutcomes records attempts, failures and the answer check for a
// ladder, notes each rung, and returns the served and shed totals. A shed
// is admission control refusing load it cannot serve within the limit; it
// counts against goodput and the knee, not as a failed operation.
func (r *report) openOutcomes(rungs []rungStats) (served, sheds int) {
	wrong, errs := 0, 0
	for ri, s := range rungs {
		r.attempted += s.sent
		served += s.served
		wrong += s.wrong
		errs += s.errs
		shed := 0
		for _, n := range s.sheds {
			shed += n
		}
		sheds += shed
		r.note("rung %.0f/s: sent %d, served %d, shed %d, on time %.4f, p50 %.3g ms, p99 %.3g ms (n=%d), drain %v, sustained %v",
			fleetLadder[ri].rate, s.sent, s.served, shed, s.onTimeShare(),
			percentile(s.lat, 0.5), percentile(s.lat, 0.99), len(s.lat), s.drain.Round(time.Millisecond), s.sustained())
	}
	r.failed = errs + wrong
	r.check("answers", wrong == 0 && errs == 0,
		fmt.Sprintf("%d served arrivals against ATC-CQ (no sharing, unloaded): %d wrong, %d errors", served, wrong, errs))
	return served, sheds
}
