package qsm

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/cq"
	"repro/internal/mqo"
)

// checkPlan, when set, sees every group's plan before it is grafted, while
// the catalog still holds the feedback the plan was chosen under. Only tests
// set it (export_test.go), to compare cached plans with fresh searches.
var checkPlan func(qs []*cq.CQ, cm *costmodel.Model, cfg mqo.Config, res *mqo.Result)

// planCacheCap bounds the plan cache's entries. An entry costs a few
// kilobytes (its inputs plus one feedback value per dependency key), so the
// cache stays in the low megabytes however long the manager runs.
const planCacheCap = 128

// PlanCacheStats counts plan-cache lookups, one per optimization group:
// Hits reused a cached plan, Misses found no entry, Stale found an entry
// whose catalog feedback had changed and re-optimized.
type PlanCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Stale  int64 `json:"stale"`
}

// Add sums two counter sets.
func (s PlanCacheStats) Add(o PlanCacheStats) PlanCacheStats {
	return PlanCacheStats{Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses, Stale: s.Stale + o.Stale}
}

// Sub returns the counts accumulated since an earlier snapshot.
func (s PlanCacheStats) Sub(o PlanCacheStats) PlanCacheStats {
	return PlanCacheStats{Hits: s.Hits - o.Hits, Misses: s.Misses - o.Misses, Stale: s.Stale - o.Stale}
}

// planCache keeps mqo.Optimize results across admissions (§3, §6.1: the
// query state manager keeps feedback "such that the query optimizer can
// determine what can be reused" — here, the optimizer's own output).
//
// An entry is keyed by the exact structure of the group's CQs in group order
// plus the optimizer config (planKey), and is valid only while every piece
// of catalog feedback the search could have read is unchanged: the feedback
// of each AND-OR memo key and of each CQ's full expression, recorded at
// insertion and compared on lookup. Everything else the search reads — the
// relation statistics and the cost parameters — is fixed for the manager's
// lifetime. So every catalog mutation (SyncCatalog, eviction, SpillLost,
// migration, recovery) invalidates exactly the entries it could change, with
// no hooks at the mutation sites.
//
// Entries hold the chosen inputs' expressions, modes, DBs and per-position
// atom mappings, never the search memo or CQ pointers: a hit rebinds them to
// the new group's CQs by position. The cache is touched only by the
// admitting goroutine.
type planCache struct {
	entries map[string]*planEntry
	tick    uint64 // LRU clock: bumped on every insert and hit
	stats   PlanCacheStats
}

type planEntry struct {
	inputs  []cachedInput
	cost    float64
	cands   int
	deps    []feedbackDep
	lastUse uint64
}

type cachedInput struct {
	expr *cq.Expr
	mode costmodel.Mode
	db   string
	uses []cachedUse // by ascending position
}

// cachedUse is one consuming CQ, by its position in the group.
type cachedUse struct {
	pos    int
	atomOf []int
}

type feedbackDep struct {
	key string
	fb  catalog.Feedback
}

func newPlanCache() *planCache {
	return &planCache{entries: map[string]*planEntry{}}
}

// planKey encodes everything about a group that mqo.Optimize reads, other
// than catalog feedback: per CQ in group order, the rank of its id among the
// group's ids and each atom's relation, DB, variable ids and constants; and
// the config. Order is part of the key on purpose — the search derives its
// bit order from the id ranks, completes queries in group order, and sums
// per-query costs in group order — so a reordered group is a different key.
// ok is false when the group cannot be cached (duplicate CQ ids make
// positional rebinding ambiguous).
func planKey(qs []*cq.CQ, cfg mqo.Config) (key string, ok bool) {
	ids := make([]string, len(qs))
	for i, q := range qs {
		ids[i] = q.ID
	}
	sort.Strings(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return "", false
		}
	}
	cfg = cfg.Defaults()
	b := make([]byte, 0, 64*len(qs))
	for _, v := range []int{cfg.K, cfg.MaxCandidateAtoms, cfg.MinShare, cfg.MaxCandidates, cfg.SearchNodeBudget} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendUvarint(b, math.Float64bits(cfg.LowCardThreshold))
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = binary.AppendUvarint(b, uint64(sort.SearchStrings(ids, q.ID)))
		b = binary.AppendUvarint(b, uint64(len(q.Atoms)))
		for _, a := range q.Atoms {
			b = appendString(b, a.Rel)
			b = appendString(b, a.DB)
			b = binary.AppendUvarint(b, uint64(len(a.Args)))
			for _, t := range a.Args {
				if t.IsConst() {
					b = binary.AppendVarint(b, -1)
					b = appendString(b, t.Const.Key())
					continue
				}
				b = binary.AppendVarint(b, int64(t.Var))
			}
		}
	}
	return string(b), true
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// lookup keys the group and returns the cached plan rebound to qs, or nil
// on a miss or a stale entry (counted apart). key is "" when the group
// cannot be cached. A group whose CQs fail validation misses, so
// mqo.Optimize reports the error exactly as without the cache.
func (c *planCache) lookup(qs []*cq.CQ, cfg mqo.Config, cat *catalog.Catalog) (key string, res *mqo.Result) {
	key, ok := planKey(qs, cfg)
	if !ok {
		c.stats.Misses++
		return "", nil
	}
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return key, nil
	}
	for _, d := range e.deps {
		if cat.FeedbackOf(d.key) != d.fb {
			c.stats.Stale++
			return key, nil
		}
	}
	for _, q := range qs {
		if q.Validate() != nil {
			c.stats.Misses++
			return key, nil
		}
	}
	c.stats.Hits++
	c.tick++
	e.lastUse = c.tick
	inputs := make([]*costmodel.Input, len(e.inputs))
	for i, ci := range e.inputs {
		uses := make(map[string]*cq.ExprOccurrence, len(ci.uses))
		for _, u := range ci.uses {
			q := qs[u.pos]
			uses[q.ID] = &cq.ExprOccurrence{CQ: q, AtomOf: u.atomOf}
		}
		inputs[i] = &costmodel.Input{Expr: ci.expr, Mode: ci.mode, DB: ci.db, Uses: uses}
	}
	return key, &mqo.Result{Inputs: inputs, Cost: e.cost, CandidateCount: e.cands}
}

// insert records a fresh result for key, replacing a stale entry or, at
// capacity, evicting the least recently used one. The dependency feedback
// is read now: the catalog has not changed since the search ran.
func (c *planCache) insert(key string, qs []*cq.CQ, res *mqo.Result, cat *catalog.Catalog) {
	if _, ok := c.entries[key]; !ok && len(c.entries) >= planCacheCap {
		var victim string
		var oldest *planEntry
		for k, e := range c.entries {
			if oldest == nil || e.lastUse < oldest.lastUse {
				victim, oldest = k, e
			}
		}
		delete(c.entries, victim)
	}
	pos := make(map[string]int, len(qs))
	for i, q := range qs {
		pos[q.ID] = i
	}
	inputs := make([]cachedInput, len(res.Inputs))
	for i, in := range res.Inputs {
		uses := make([]cachedUse, 0, len(in.Uses))
		for id, occ := range in.Uses {
			uses = append(uses, cachedUse{pos: pos[id], atomOf: append([]int(nil), occ.AtomOf...)})
		}
		sort.Slice(uses, func(a, b int) bool { return uses[a].pos < uses[b].pos })
		inputs[i] = cachedInput{expr: in.Expr, mode: in.Mode, db: in.DB, uses: uses}
	}
	keys := res.Memo.Keys()
	for _, q := range qs {
		if full := q.FullExpr().Key(); res.Memo.Node(full) == nil {
			keys = append(keys, full)
		}
	}
	deps := make([]feedbackDep, len(keys))
	for i, k := range keys {
		deps[i] = feedbackDep{key: k, fb: cat.FeedbackOf(k)}
	}
	c.tick++
	c.entries[key] = &planEntry{inputs: inputs, cost: res.Cost, cands: res.CandidateCount, deps: deps, lastUse: c.tick}
}
