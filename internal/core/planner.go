package core

import (
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/plan"
)

// Env implements plan.Catalog, feeding the planner schema and statistics
// resolution without touching the sort-order cache bookkeeping (planning
// must not register cache entries; only execution's source() does).

// BoundSchema resolves a FROM-clause relation reference to its schema
// with the binding (alias) applied as the schema name, mirroring
// source()'s schema derivation.
func (e *Env) BoundSchema(tr fsql.TableRef) (*frel.Schema, error) {
	h, err := e.cat.Relation(tr.Name)
	if err != nil {
		return nil, err
	}
	if alias := tr.Binding(); alias != "" && relKey(alias) != h.Schema.Name {
		return h.Schema.WithName(relKey(alias)), nil
	}
	return h.Schema, nil
}

// RelStats resolves the planner statistics of a referenced relation: its
// heap file has them from its creation or from its checkpoint entry when
// reopened, maintains them on append, and builds them with one scan only
// where neither supplied them (see storage.HeapFile.Stats), so planning a
// cold statement reads no relation. They are returned as an independent
// snapshot: the plan holds them across the statement while the single
// writer may keep appending (estimates may include uncommitted rows,
// which only affects costing, never answers).
func (e *Env) RelStats(tr fsql.TableRef) (*frel.TableStats, error) {
	h, err := e.cat.Relation(tr.Name)
	if err != nil {
		return nil, err
	}
	return h.StatsSnapshot()
}

// HasOrderIndex implements plan.OrderIndexes: it reports whether the
// referenced relation carries a persistent order index on attr, so the
// cost model can drop the sort term of a merge-join input the execution
// path will serve from the index.
func (e *Env) HasOrderIndex(tr fsql.TableRef, attr string) bool {
	sch, err := e.BoundSchema(tr)
	if err != nil {
		return false
	}
	pos, err := sch.Resolve(attr)
	if err != nil {
		return false
	}
	h, err := e.cat.Relation(tr.Name)
	if err != nil {
		return false
	}
	return e.cat.IndexForHeap(h, pos) != nil
}

// PlanQuery runs the three-stage planner over q: Build the logical IR
// from the AST, Rewrite it with the unnesting rules (Sections 4-8), and
// Estimate it with the statistics-fed cost model.
func (e *Env) PlanQuery(q *fsql.Select) (*plan.Plan, error) {
	p, err := plan.Build(q, e)
	if err != nil {
		return nil, err
	}
	if err := p.Rewrite(); err != nil {
		return nil, err
	}
	p.Estimate(plan.Options{DisableJoinReorder: e.DisableJoinReorder})
	return p, nil
}
