package qsm

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/mqo"
)

// cachedOptimize is optimizeGroups' per-group protocol: look up, and on a
// miss or stale entry search afresh and insert. fresh reports a search.
func cachedOptimize(t *testing.T, m *Manager, c *planCache, qs []*cq.CQ, cfg mqo.Config) (res *mqo.Result, fresh bool) {
	t.Helper()
	key, res := c.lookup(qs, cfg, m.Cat)
	if res != nil {
		return res, false
	}
	if key == "" {
		t.Fatal("group not cacheable")
	}
	res, err := mqo.Optimize(qs, m.CM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.insert(key, qs, res, m.Cat)
	return res, true
}

// planGroup is one user query's CQs; groups with different prefixes have the
// same structure and the same id ranks, so they share a cache key.
func planGroup(prefix string) []*cq.CQ {
	return []*cq.CQ{
		internalChainQ(prefix+".CQ1", "A", "B", "C"),
		internalChainQ(prefix+".CQ2", "B", "C", "D"),
	}
}

// TestPlanCacheFeedbackInvalidation checks that each kind of catalog
// feedback change on a key the search read makes the entry stale and forces
// a fresh search, while changes to keys it did not read leave it valid.
func TestPlanCacheFeedbackInvalidation(t *testing.T) {
	m, _ := internalRig(t)
	c := newPlanCache()
	cfg := mqo.Config{K: 10}
	n := 0
	next := func() []*cq.CQ {
		n++
		return planGroup("U" + string(rune('a'+n)))
	}
	if _, fresh := cachedOptimize(t, m, c, next(), cfg); !fresh {
		t.Fatal("first lookup hit an empty cache")
	}
	if res, fresh := cachedOptimize(t, m, c, next(), cfg); fresh || res.SearchNodes != 0 {
		t.Fatalf("identical group re-searched (fresh=%v, nodes=%d)", fresh, res.SearchNodes)
	}
	probe := planGroup("probe")
	single, _ := probe[0].SubExpr([]int{0})
	full := probe[1].FullExpr()
	cases := []struct {
		name   string
		mutate func()
		stale  bool
	}{
		{"RecordStreamed on a memo key", func() { m.Cat.RecordStreamed(single.Key(), 7) }, true},
		{"RecordExprCard on a full expression", func() { m.Cat.RecordExprCard(full.Key(), 3) }, true},
		{"ForgetStreamed on a memo key", func() { m.Cat.ForgetStreamed(single.Key()) }, true},
		{"RecordStreamed on an unrelated key", func() { m.Cat.RecordStreamed("X@db($0)", 9) }, false},
		{"RecordExprCard on an unrelated key", func() { m.Cat.RecordExprCard("X@db($0)", 2) }, false},
	}
	for _, tc := range cases {
		before := c.stats
		tc.mutate()
		_, fresh := cachedOptimize(t, m, c, next(), cfg)
		stale := c.stats.Stale - before.Stale
		if fresh != tc.stale || (stale == 1) != tc.stale {
			t.Fatalf("%s: fresh search %v, stale lookups %d; want stale=%v", tc.name, fresh, stale, tc.stale)
		}
		if _, fresh := cachedOptimize(t, m, c, next(), cfg); fresh {
			t.Fatalf("%s: the replacement entry was not reused", tc.name)
		}
	}
	if len(c.entries) != 1 {
		t.Fatalf("stale entries were not replaced in place: %d entries", len(c.entries))
	}
	want := PlanCacheStats{Hits: 8, Misses: 1, Stale: 3}
	if c.stats != want {
		t.Fatalf("counters %+v, want %+v", c.stats, want)
	}
}

// TestPlanCacheEvictsLeastRecentlyUsed fills the cache to its bound, reuses
// the oldest entry, and checks that the next insert evicts the least
// recently used entry instead — the same victim on every run.
func TestPlanCacheEvictsLeastRecentlyUsed(t *testing.T) {
	m, _ := internalRig(t)
	c := newPlanCache()
	qs := planGroup("U")
	keyOf := func(k int) string {
		key, _ := planKey(qs, mqo.Config{K: k})
		return key
	}
	for k := 1; k <= planCacheCap; k++ {
		cachedOptimize(t, m, c, qs, mqo.Config{K: k})
	}
	if _, fresh := cachedOptimize(t, m, c, qs, mqo.Config{K: 1}); fresh {
		t.Fatal("entry K=1 was not cached")
	}
	cachedOptimize(t, m, c, qs, mqo.Config{K: planCacheCap + 1})
	if len(c.entries) != planCacheCap {
		t.Fatalf("%d entries, want the bound %d", len(c.entries), planCacheCap)
	}
	if c.entries[keyOf(2)] != nil {
		t.Fatal("least recently used entry K=2 survived")
	}
	for _, k := range []int{1, 3, planCacheCap + 1} {
		if c.entries[keyOf(k)] == nil {
			t.Fatalf("entry K=%d was evicted", k)
		}
	}
}

// TestPlanKeyKeepsGroupOrder pins that the key distinguishes a reordered
// group (the search reads group order) and refuses duplicate CQ ids.
func TestPlanKeyKeepsGroupOrder(t *testing.T) {
	cfg := mqo.Config{K: 10}
	a := planGroup("U")
	b := []*cq.CQ{a[1], a[0]}
	ka, _ := planKey(a, cfg)
	kb, _ := planKey(b, cfg)
	if ka == kb {
		t.Fatal("reordered group has the same key")
	}
	if kc, _ := planKey(planGroup("V"), cfg); kc != ka {
		t.Fatal("structurally identical group with the same id ranks has a different key")
	}
	if _, ok := planKey([]*cq.CQ{a[0], a[0]}, cfg); ok {
		t.Fatal("group with duplicate CQ ids was keyed")
	}
}
