package costmodel

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/relationdb"
	"repro/internal/scoring"
	"repro/internal/tuple"
)

func fixtureModel(t *testing.T) *Model {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, card int, scored bool) {
		cols := []tuple.Column{
			{Name: "a", Type: tuple.KindInt},
			{Name: "b", Type: tuple.KindInt},
		}
		if scored {
			cols = append(cols, tuple.Column{Name: "s", Type: tuple.KindFloat, Score: true})
		}
		s := tuple.NewSchema(name, cols...)
		rng := dist.New(uint64(card))
		var rows []*tuple.Tuple
		for i := 0; i < card; i++ {
			vals := []tuple.Value{tuple.Int(int64(i)), tuple.Int(int64(rng.Intn(card)))}
			if scored {
				vals = append(vals, tuple.Float(rng.Float64()))
			}
			rows = append(rows, tuple.New(s, vals...))
		}
		cat.AddRelation("db", relationdb.NewRelation(s, rows))
	}
	mk("Scored", 1000, true)
	mk("Small", 50, false)
	mk("BigPlain", 5000, false)
	return New(cat, DefaultParams())
}

func atomExpr(rel string, scored bool) *cq.Expr {
	args := []cq.Term{cq.V(0), cq.V(1)}
	if scored {
		args = append(args, cq.V(2))
	}
	q := &cq.CQ{ID: "x", Atoms: []*cq.Atom{{Rel: rel, DB: "db", Args: args}}, Model: scoring.Discover(1)}
	e, _ := q.SubExpr([]int{0})
	return e
}

func TestChooseMode(t *testing.T) {
	m := fixtureModel(t)
	if m.ChooseMode(atomExpr("Scored", true)) != Stream {
		t.Error("scored relation should stream")
	}
	if m.ChooseMode(atomExpr("Small", false)) != Stream {
		t.Error("small score-less relation should stream (τ rule)")
	}
	if m.ChooseMode(atomExpr("BigPlain", false)) != Probe {
		t.Error("large score-less relation should probe")
	}
}

func TestStreamDepthBounds(t *testing.T) {
	m := fixtureModel(t)
	e := atomExpr("Scored", true)
	q := &cq.CQ{ID: "q", Atoms: []*cq.Atom{
		{Rel: "Scored", DB: "db", Args: []cq.Term{cq.V(0), cq.V(1), cq.V(2)}},
		{Rel: "Small", DB: "db", Args: []cq.Term{cq.V(1), cq.V(3)}},
	}, Model: scoring.Discover(2)}
	occ := &cq.ExprOccurrence{CQ: q, AtomOf: []int{0}}
	d := m.StreamDepth(e, map[string]*cq.ExprOccurrence{"q": occ}, 50, map[string]int{"q": 2})
	if d < 50 || d > 1000 {
		t.Errorf("depth %v out of [k, card]", d)
	}
	// Larger k demands deeper reads.
	d2 := m.StreamDepth(e, map[string]*cq.ExprOccurrence{"q": occ}, 500, map[string]int{"q": 2})
	if d2 < d {
		t.Errorf("depth must grow with k: %v -> %v", d, d2)
	}
}

func TestAssignmentCostMonotoneInReuse(t *testing.T) {
	m := fixtureModel(t)
	q := &cq.CQ{ID: "q", Atoms: []*cq.Atom{
		{Rel: "Scored", DB: "db", Args: []cq.Term{cq.V(0), cq.V(1), cq.V(2)}},
		{Rel: "Small", DB: "db", Args: []cq.Term{cq.V(1), cq.V(3)}},
	}, Model: scoring.Discover(2)}
	e1 := atomExpr("Scored", true)
	e2 := atomExpr("Small", false)
	occ1 := &cq.ExprOccurrence{CQ: q, AtomOf: []int{0}}
	occ2 := &cq.ExprOccurrence{CQ: q, AtomOf: []int{1}}
	inputs := []*Input{
		{Expr: e1, Mode: Stream, DB: "db", Uses: map[string]*cq.ExprOccurrence{"q": occ1}},
		{Expr: e2, Mode: Stream, DB: "db", Uses: map[string]*cq.ExprOccurrence{"q": occ2}},
	}
	cold := m.AssignmentCost([]*cq.CQ{q}, inputs, 50)
	m.Cat.RecordStreamed(e1.Key(), 1<<20)
	warm := m.AssignmentCost([]*cq.CQ{q}, inputs, 50)
	if warm >= cold {
		t.Errorf("buffered input did not lower cost: %v -> %v", cold, warm)
	}
}

func TestProbeCostCharged(t *testing.T) {
	m := fixtureModel(t)
	q := &cq.CQ{ID: "q", Atoms: []*cq.Atom{
		{Rel: "Scored", DB: "db", Args: []cq.Term{cq.V(0), cq.V(1), cq.V(2)}},
		{Rel: "BigPlain", DB: "db", Args: []cq.Term{cq.V(1), cq.V(3)}},
	}, Model: scoring.Discover(2)}
	e1 := atomExpr("Scored", true)
	e2 := atomExpr("BigPlain", false)
	occ1 := &cq.ExprOccurrence{CQ: q, AtomOf: []int{0}}
	occ2 := &cq.ExprOccurrence{CQ: q, AtomOf: []int{1}}
	withProbe := m.AssignmentCost([]*cq.CQ{q}, []*Input{
		{Expr: e1, Mode: Stream, DB: "db", Uses: map[string]*cq.ExprOccurrence{"q": occ1}},
		{Expr: e2, Mode: Probe, DB: "db", Uses: map[string]*cq.ExprOccurrence{"q": occ2}},
	}, 50)
	streamOnly := m.AssignmentCost([]*cq.CQ{q}, []*Input{
		{Expr: e1, Mode: Stream, DB: "db", Uses: map[string]*cq.ExprOccurrence{"q": occ1}},
	}, 50)
	if withProbe <= streamOnly {
		t.Errorf("probe input added no cost: %v vs %v", withProbe, streamOnly)
	}
}

func TestModeString(t *testing.T) {
	if Stream.String() != "stream" || Probe.String() != "probe" {
		t.Error("mode strings")
	}
}
