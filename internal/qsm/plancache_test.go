package qsm_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/batcher"
	"repro/internal/benchrun"
	"repro/internal/costmodel"
	"repro/internal/cq"
	"repro/internal/mqo"
	"repro/internal/qsm"
)

// planDiff compares a plan the manager is about to graft with a fresh
// search over the same catalog state, returning "" when they are equal:
// the same input expressions in the same order, with the same modes, DBs,
// consuming CQs and atom mappings, the same candidate count and
// bit-identical cost.
func planDiff(qs []*cq.CQ, cm *costmodel.Model, cfg mqo.Config, used *mqo.Result) string {
	fresh, err := mqo.Optimize(qs, cm, cfg)
	if err != nil {
		return "fresh optimize failed: " + err.Error()
	}
	if math.Float64bits(used.Cost) != math.Float64bits(fresh.Cost) {
		return "cost differs"
	}
	if used.CandidateCount != fresh.CandidateCount {
		return "candidate count differs"
	}
	if len(used.Inputs) != len(fresh.Inputs) {
		return "input count differs"
	}
	for i, a := range used.Inputs {
		b := fresh.Inputs[i]
		if a.Expr.Key() != b.Expr.Key() || a.Mode != b.Mode || a.DB != b.DB || len(a.Uses) != len(b.Uses) {
			return "input " + b.Expr.Key() + " differs"
		}
		for id, occ := range b.Uses {
			got, ok := a.Uses[id]
			if !ok || got.CQ != occ.CQ || !reflect.DeepEqual(got.AtomOf, occ.AtomOf) {
				return "input " + b.Expr.Key() + " use " + id + " differs"
			}
		}
	}
	return ""
}

// planChecker installs a hook that checks every admitted group's plan
// against a fresh search. Shard executors call it from their own goroutines.
type planChecker struct {
	t      *testing.T
	mu     sync.Mutex
	groups int
	hits   int
}

func checkPlans(t *testing.T) *planChecker {
	c := &planChecker{t: t}
	t.Cleanup(qsm.SetPlanCheck(func(qs []*cq.CQ, cm *costmodel.Model, cfg mqo.Config, res *mqo.Result) {
		diff := planDiff(qs, cm, cfg, res)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.groups++
		if res.SearchNodes == 0 {
			c.hits++ // a search always visits at least its root
		}
		if diff != "" {
			c.t.Errorf("group %s: plan used != fresh plan: %s", qs[0].ID, diff)
		}
	}))
	return c
}

func (c *planChecker) counts() (groups, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups, c.hits
}

// TestCachedPlanEqualsFreshPlanOnProfiles replays the trajectory's serving,
// routing and bounded-budget (spill and discard eviction) profiles and
// checks, at every admission, that the plan grafted — cached or not — equals
// a fresh mqo.Optimize against the same catalog feedback.
func TestCachedPlanEqualsFreshPlanOnProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three multi-run profiles")
	}
	c := checkPlans(t)
	if _, err := benchrun.RunServing(benchrun.Config{}); err != nil {
		t.Fatal(err)
	}
	groups, hits := c.counts()
	if hits == 0 {
		t.Fatalf("serving profile: no plan-cache hit in %d groups; the check is vacuous", groups)
	}
	t.Logf("serving: %d groups, %d cached", groups, hits)
	if _, err := benchrun.RunRouting(benchrun.Config{}.Defaults()); err != nil {
		t.Fatal(err)
	}
	if _, err := benchrun.RunBudget(benchrun.Config{}); err != nil {
		t.Fatal(err)
	}
	groups, hits = c.counts()
	t.Logf("all profiles: %d groups, %d cached", groups, hits)
}

// TestPlanCacheParallelAdmission admits multi-group batches on a parallel
// controller, so cache misses are optimized concurrently while lookups and
// inserts stay on the admitting goroutine. Run under -race; answers and
// plans must match the serial controller's.
func TestPlanCacheParallelAdmission(t *testing.T) {
	c := checkPlans(t)
	batch := func(round int) []*cq.UQ {
		return []*cq.UQ{
			{ID: "P1", K: 5, CQs: []*cq.CQ{chainQ("P1.a", "A", "B"), chainQ("P1.b", "A", "B", "C")}},
			{ID: "P2", K: 5, CQs: []*cq.CQ{chainQ("P2.a", "B", "C")}},
			{ID: "P3", K: 5, CQs: []*cq.CQ{chainQ("P3.a", "C", "A"), chainQ("P3.b", "A", "C")}},
		}
	}
	run := func(workers int) (map[string][]string, qsm.PlanCacheStats) {
		r := newRig(t, qsm.ShareWithinUQ, 0)
		r.ctrl.EnableParallel(workers, 7)
		defer r.ctrl.Close()
		out := map[string][]string{}
		for round := 0; round < 3; round++ {
			var subs []batcher.Submission
			for _, uq := range batch(round) {
				uq.ID = uq.ID + string(rune('a'+round))
				for _, q := range uq.CQs {
					q.ID = uq.ID + q.ID[2:]
				}
				subs = append(subs, batcher.Submission{At: r.env.Clock.Now(), UQ: uq})
			}
			if _, err := r.mgr.Admit(subs, mqo.Config{K: 5}); err != nil {
				t.Fatal(err)
			}
			for r.ctrl.RunRound() {
			}
			for _, m := range r.ctrl.Merges() {
				var answers []string
				for _, res := range m.RM.Results() {
					answers = append(answers, fmt.Sprintf("%s %.9g %s", res.CQID, res.Score, res.Row.Identity()))
				}
				out[m.RM.UQ.ID] = answers
			}
		}
		return out, r.mgr.PlanCacheStats()
	}
	serial, serialStats := run(1)
	parallel, parallelStats := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel admission changed answers:\nserial   %v\nparallel %v", serial, parallel)
	}
	if serialStats != parallelStats {
		t.Fatalf("plan cache evolved differently: serial %+v, parallel %+v", serialStats, parallelStats)
	}
	if parallelStats.Hits == 0 {
		t.Fatalf("no plan-cache hit: %+v", parallelStats)
	}
	if groups, _ := c.counts(); groups != 2*3*3 {
		t.Fatalf("checked %d groups, want 18", groups)
	}
}
