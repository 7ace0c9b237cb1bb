package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/admission"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/workload"
)

// setEngineLayers reports the per-layer metrics a layered engine measured,
// per search, and notes how the layers' self times reconcile with the
// traced wall.
func (r *report) setEngineLayers(e *layered) {
	t, w, n := e.t, e.work(), e.t.searches
	f := func(v int64) float64 { return perSearch(float64(v), n) }
	r.set("candidates.expand_ms", perSearch(ms(t.expand), n))
	r.set("candidates.cqs", f(int64(t.cqs)))
	r.set("mqo.optimize_ms", perSearch(ms(t.optimize), n))
	r.set("mqo.search_nodes", f(int64(t.searchNodes)))
	r.set("mqo.candidates", f(int64(t.candidates)))
	r.set("qsm.graft_ms", perSearch(ms(t.graft), n))
	r.set("qsm.replay_tuples", f(t.replay))
	r.set("qsm.sync_ms", perSearch(ms(t.sync), n))
	r.set("atc.execute_ms", perSearch(ms(t.execute), n))
	r.set("atc.rounds", f(int64(t.rounds)))
	r.set("operator.stream_tuples", f(w.StreamTuples))
	r.set("operator.probe_calls", f(w.ProbeCalls))
	hitRate := 0.0
	if d := w.ProbeCacheHits + w.ProbeCalls; d > 0 {
		hitRate = float64(w.ProbeCacheHits) / float64(d)
	}
	r.set("operator.probe_hit_rate", hitRate)
	r.set("operator.join_inserts", f(w.JoinInserts))
	r.set("operator.join_probes", f(w.JoinProbes))
	r.set("state.evictions", f(int64(e.mgr.Evictions())))
	r.set("state.spill_rows_written", f(w.SpillRowsWritten))
	r.set("state.spill_rows_read", f(w.SpillRowsRead))
	r.set("state.revivals_spill", f(w.RevivalsFromSpill))
	r.set("state.revivals_source", f(w.RevivalsFromSource))
	r.set("state.resident_rows", float64(e.mgr.StateSize()))
	r.set("state.shared_disk_frac", service.Stats{Work: w}.SharedSplit().DiskHit)

	rest, frac := unattributed(t.wall, t.expand, t.optimize, t.graft, t.sync, t.execute)
	r.set("trace.wall_ms", perSearch(ms(t.wall), n))
	r.set("trace.unattributed_ms", perSearch(ms(rest), n))
	share := func(d time.Duration) float64 { return float64(d) / float64(max(t.wall, 1)) }
	r.note("traced wall %v over %d searches: expand %.3f, optimize %.3f, graft %.3f, sync %.3f, execute %.3f, unattributed %.4f of it",
		t.wall.Round(time.Millisecond), n, share(t.expand), share(t.optimize), share(t.graft), share(t.sync), share(t.execute), frac)
	r.note("reconcile: layer self times + unattributed = traced wall; unattributed within 5%% of wall: %v", frac <= 0.05 && frac >= -0.05)
}

// setRuntime reports the Go runtime's activity between two readings.
func (r *report) setRuntime(before, after goRuntime, searches int) {
	gc, allocs, kb := after.since(before, searches)
	r.set("go.gc_cpu_frac", gc)
	r.set("go.allocs_per_search", allocs)
	r.set("go.alloc_kb_per_search", kb)
}

// setFleetLayer reports the shard RPCs a counting transport saw, against
// the shard-side wall the served results carry.
func (r *report) setFleetLayer(calls int, rpc time.Duration, bytes int64, shardWall time.Duration) {
	r.set("fleet.rpc_ms", perSearch(ms(rpc), calls))
	r.set("fleet.wire_ms", perSearch(ms(rpc-shardWall), calls))
	r.set("fleet.rpc_kb", perSearch(float64(bytes)/1024, calls))
}

// serialPass answers calls one after another through search and collects
// the answer digests and the summed call wall.
func serialPass(calls []call, search func(user string, keywords []string) (*fleet.ResultView, error)) ([]string, time.Duration, error) {
	digests := make([]string, len(calls))
	var wall time.Duration
	for i, c := range calls {
		t := time.Now()
		v, err := search(c.user, c.keywords)
		wall += time.Since(t)
		if err != nil {
			return nil, 0, fmt.Errorf("perfbench: search %d %v: %w", i, c.keywords, err)
		}
		digests[i] = answerDigest(v)
	}
	return digests, wall, nil
}

// mismatches counts positions where two digest lists differ.
func mismatches(a, b []string) int {
	n := 0
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			n++
		}
	}
	return n + max(len(b)-len(a), 0)
}

// layeredPass runs calls through a fresh layered engine built from cfg.
func layeredPass(build func() (*workload.Workload, error), cfg service.Config, calls []call) (*layered, []string, error) {
	w, err := build()
	if err != nil {
		return nil, nil, err
	}
	eng, err := newLayered(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	digests, _, err := serialPass(calls, eng.search)
	if err != nil {
		eng.close()
		return nil, nil, err
	}
	return eng, digests, nil
}

// compareTraced checks that the traced pass measured the same program as
// the untraced one — equal answers and work — and reports the tracing
// overhead per search.
func (r *report) compareTraced(eng *layered, traced []string, untraced []string, untracedWork metrics.Snapshot, untracedWall time.Duration) {
	n := eng.t.searches
	r.check("traced = untraced answers", mismatches(traced, untraced) == 0,
		fmt.Sprintf("%d searches, %d differ", n, mismatches(traced, untraced)))
	r.check("traced = untraced work", eng.work() == untracedWork, "all engine work counters")
	r.set("trace.overhead_ms", perSearch(ms(eng.t.wall-untracedWall), n))
}

// traceClosed is the traced run of a closed-loop workload: one untraced
// episode, the same calls through a layered engine, and the same calls
// through a one-shard fleet over loopback HTTP for the wire layer; every
// pass is checked against the reference.
func traceClosed(spec closedSpec, o options, r *report) error {
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
	cfg := spec.config(dir)

	before := readGoRuntime()
	ep, err := runEpisode(spec, dir, calls)
	if err != nil {
		return err
	}
	after := readGoRuntime()
	var untracedWall time.Duration
	for _, l := range ep.lat {
		untracedWall += time.Duration(l * float64(time.Millisecond))
	}

	eng, traced, err := layeredPass(spec.build, cfg, calls)
	if err != nil {
		return err
	}
	r.setEngineLayers(eng)
	r.compareTraced(eng, traced, ep.digests, ep.stats.Work, untracedWall)
	if err := eng.close(); err != nil {
		return err
	}

	counter := &rpcCounter{base: http.DefaultTransport}
	rig, err := startFleet(1, spec.build, cfg, counter)
	if err != nil {
		return err
	}
	var shardWall time.Duration
	overFleet, _, err := serialPass(calls, func(user string, kw []string) (*fleet.ResultView, error) {
		v, err := rig.front.Search(context.Background(), user, kw, 0)
		if err == nil {
			shardWall += time.Duration(v.WallLatencyNS)
		}
		return v, err
	})
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rpcCalls, rpcWall, rpcBytes := counter.snapshot()
	r.setFleetLayer(rpcCalls, rpcWall, rpcBytes, shardWall)

	ref, err := spec.reference(calls)
	if err != nil {
		return fmt.Errorf("perfbench: reference pass: %w", err)
	}
	wrong := mismatches(ep.digests, ref) + mismatches(overFleet, ref)
	r.attempted = 3 * len(calls)
	r.failed = wrong + mismatches(traced, ep.digests)
	r.check("answers", wrong == 0, fmt.Sprintf("service and fleet passes of %d searches against %s: %d wrong",
		len(calls), spec.referenceName, wrong))

	n := len(calls)
	ss := ep.stats.Service
	r.set("admission.batch_occupancy", ss.BatchOccupancy.Mean)
	r.set("admission.shed_frac", failedFrac(n, int(ss.Shed+ss.DeadlineCanceled)))
	r.set("admission.shed_frac_deadline", failedFrac(n, int(ss.DeadlineCanceled)))
	r.set("admission.shed_frac_queue_full", failedFrac(n, int(ss.ShedQueueFull)))
	r.set("router.sharing_miss_rate", ep.stats.Router.MissRate)
	r.setRuntime(before, after, n)
	r.set("loadgen.late_ms_p99", percentile(ep.late, 0.99))
	return nil
}

// traceOpen is the traced gus_open_fleet run: the ladder again with a
// counting transport on the shard clients, then the reference-rate arrivals
// through an untraced serial service and through a layered engine for the
// engine layers.
func traceOpen(o options, r *report) error {
	ctx := context.Background()
	counter := &rpcCounter{base: http.DefaultTransport}
	lr, err := runLadder(ctx, o, counter)
	if err != nil {
		return err
	}
	all := flatten(lr.arrivals)
	ref, err := fleetReference(all)
	if err != nil {
		return fmt.Errorf("perfbench: reference pass: %w", err)
	}
	rungs := ladderStats(lr, ref)
	_, sheds := r.openOutcomes(rungs)

	var shardWall time.Duration
	late := []float64{}
	for _, outs := range lr.outs {
		for _, oc := range outs {
			late = append(late, ms(oc.late))
			if oc.err == nil {
				shardWall += time.Duration(oc.view.WallLatencyNS)
			}
		}
	}
	calls, rpcWall, rpcBytes := counter.snapshot()
	r.setFleetLayer(calls, rpcWall, rpcBytes, shardWall)

	sent := r.attempted
	shedBy := map[string]int{}
	for _, s := range rungs {
		for reason, n := range s.sheds {
			shedBy[reason] += n
		}
	}
	r.set("admission.batch_occupancy", lr.occupancy)
	r.set("admission.shed_frac", failedFrac(sent, sheds))
	r.set("admission.shed_frac_deadline", failedFrac(sent, shedBy[admission.ReasonDeadline]))
	r.set("admission.shed_frac_queue_full", failedFrac(sent, shedBy[admission.ReasonQueueFull]))
	r.set("router.sharing_miss_rate", lr.missRate)
	r.setRuntime(lr.before, lr.after, sent)
	r.set("loadgen.late_ms_p99", percentile(late, 0.99))

	// Engine layers: the reference-rate arrivals, serially on one engine.
	arr := lr.arrivals[refRung]
	serial := make([]call, len(arr))
	for i, a := range arr {
		serial[i] = call{user: a.user, keywords: a.keywords}
	}
	cfg := serialConfig()
	w, err := gus1()
	if err != nil {
		return err
	}
	svc := service.New(w, cfg)
	untraced, untracedWall, err := serialPass(serial, func(user string, kw []string) (*fleet.ResultView, error) {
		res, err := svc.Search(ctx, user, kw, 0)
		if err != nil {
			return nil, err
		}
		return fleet.ViewOf(res), nil
	})
	work := svc.Stats().Work
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	eng, traced, err := layeredPass(gus1, cfg, serial)
	if err != nil {
		return err
	}
	defer eng.close()
	r.setEngineLayers(eng)
	r.compareTraced(eng, traced, untraced, work, untracedWall)
	off := len(flatten(lr.arrivals[:refRung]))
	wrong := mismatches(untraced, ref[off:off+len(arr)])
	r.attempted += 2 * len(serial)
	r.failed += wrong + mismatches(traced, untraced)
	r.check("serial answers", wrong == 0, fmt.Sprintf("%d reference-rate arrivals served serially: %d wrong", len(serial), wrong))
	return nil
}
