package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/service"
	"repro/internal/simclock"
	"repro/internal/state"
	"repro/internal/workload"
)

// layered drives one engine through the public calls a service shard makes
// for each search — Expander.Expand, Manager.SyncCatalog, Manager.Admit,
// ATC.RunRound until the merge is done, ATC.Forget, Manager.SyncCatalog —
// and times each call from the benchmark's side. The engine is wired the
// way the service wires shard 0 (ShareAll, UnitUQ, one worker, the same
// seed derivation, budget arbiter, eviction policy and spill tier), so its
// answers and work counters must equal an untraced service's.
type layered struct {
	exp  *service.Expander
	env  *operator.Env
	ctrl *atc.ATC
	mgr  *qsm.Manager

	t layerTimes
}

// layerTimes accumulates per-layer self times and counts over the searches
// a layered engine served.
type layerTimes struct {
	searches int
	// wall is the sum of per-search traced wall: first call in to last
	// call out.
	wall, expand, optimize, graft, sync, execute time.Duration

	cqs, searchNodes, candidates, rounds int
	replay                               int64
}

// newLayered builds shard 0's engine for cfg over w. cfg.Workers and
// cfg.BatchRows must be the serial defaults the benchmark serves with.
func newLayered(w *workload.Workload, cfg service.Config) (*layered, error) {
	if cfg.Workers != 1 || cfg.BatchRows != 0 || cfg.ShardIDOffset != 0 {
		return nil, fmt.Errorf("perfbench: layered engine mirrors a serial shard 0 only")
	}
	rng := dist.New(cfg.Seed + 1) // newShard's derivation for engine id 0
	env := &operator.Env{Clock: simclock.NewVirtual(0), Delays: simclock.DefaultDelays(rng), Metrics: &metrics.Counters{}}
	graph := plangraph.New("")
	ctrl := atc.New(graph, env, w.Fleet)
	cat := w.Catalog.Fork()
	mgr := qsm.New(graph, ctrl, cat, costmodel.New(cat, costmodel.DefaultParams()), qsm.ShareAll)
	mgr.MemoryBudget = cfg.MemoryBudget
	policy, err := state.ParsePolicy(cfg.EvictPolicy)
	if err != nil {
		return nil, err
	}
	mgr.State.SetPolicy(policy)
	if cfg.MemoryBudget > 0 {
		arb := state.NewArbiter(cfg.MemoryBudget, 1)
		ledger := mgr.State.Ledger
		mgr.State.SetBudgetFn(func() int { return arb.Allot(0, ledger.Total()) })
	}
	if cfg.SpillDir != "" {
		if err := mgr.EnableSpill(filepath.Join(cfg.SpillDir, "shard-0"), mgr.DefaultResolver()); err != nil {
			return nil, err
		}
	}
	mgr.Unit = qsm.UnitUQ
	return &layered{exp: service.NewExpander(w, cfg), env: env, ctrl: ctrl, mgr: mgr}, nil
}

// search serves one search the way a shard with a single client does.
func (e *layered) search(user string, keywords []string) (*fleet.ResultView, error) {
	t0 := time.Now()
	uq, err := e.exp.Expand(user, keywords, 0)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	e.mgr.SyncCatalog()
	t2 := time.Now()
	rep, err := e.mgr.Admit([]batcher.Submission{{At: e.env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	m := e.ctrl.MergeByUQ(uq.ID)
	if m == nil {
		return nil, fmt.Errorf("perfbench: query %s not registered", uq.ID)
	}
	rounds := 0
	for {
		more := e.ctrl.RunRound()
		rounds++
		if m.Done {
			break
		}
		if !more {
			return nil, fmt.Errorf("perfbench: query %s stalled", uq.ID)
		}
	}
	t4 := time.Now()
	if m.Err != nil {
		return nil, fmt.Errorf("perfbench: query %s failed: %w", uq.ID, m.Err)
	}
	view := viewOf(uq, m.RM.Results())
	view.EngineLatencyNS = int64(m.Latency())
	e.ctrl.Forget(uq.ID)
	t5 := time.Now()
	e.mgr.SyncCatalog()
	t6 := time.Now()

	e.t.searches++
	e.t.wall += t6.Sub(t0)
	e.t.expand += t1.Sub(t0)
	e.t.sync += t2.Sub(t1) + t6.Sub(t5)
	e.t.optimize += rep.OptimizeWall
	e.t.graft += t3.Sub(t2) - rep.OptimizeWall
	e.t.execute += t4.Sub(t3)
	e.t.cqs += len(uq.CQs)
	e.t.searchNodes += rep.SearchNodes
	for _, c := range rep.CandidatesPerGroup {
		e.t.candidates += c
	}
	e.t.rounds += rounds
	e.t.replay += rep.Recovered
	return view, nil
}

// work is the engine's work counters.
func (e *layered) work() metrics.Snapshot { return e.env.Metrics.Snapshot() }

// close releases the engine's workers and spill segments.
func (e *layered) close() error {
	e.ctrl.Close()
	return e.mgr.State.Close()
}
