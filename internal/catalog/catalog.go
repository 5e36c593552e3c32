// Package catalog maintains the database catalog: named fuzzy relations
// bound to heap files, and the linguistic-term dictionary mapping vague
// terms such as "medium young" to their possibility distributions
// (Section 2 of the paper). Fuzzy SQL queries reference both.
package catalog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// Catalog is the root object of a database session. Lookups (Relation,
// Term, listings) may run concurrently with each other; mutations (DDL,
// term definitions, Save) must be serialized against everything else by
// the caller — the public fuzzydb layer does so with a readers-writer
// lock, and the catalog's own mutex only keeps the maps themselves safe
// for concurrent lookups while a forked session defines shared state.
type Catalog struct {
	mgr *storage.Manager

	mu        sync.RWMutex // guards the three maps
	relations map[string]*storage.HeapFile
	indexes   map[string]*Index
	terms     map[string]fuzzy.Trapezoid
}

// New creates an empty catalog over the given storage manager.
func New(mgr *storage.Manager) *Catalog {
	return &Catalog{
		mgr:       mgr,
		relations: make(map[string]*storage.HeapFile),
		indexes:   make(map[string]*Index),
		terms:     make(map[string]fuzzy.Trapezoid),
	}
}

// Manager returns the underlying storage manager.
func (c *Catalog) Manager() *storage.Manager { return c.mgr }

func relKey(name string) string { return strings.ToUpper(name) }

// CreateRelation creates an empty relation with the given schema. Relation
// names are case-insensitive.
func (c *Catalog) CreateRelation(name string, schema *frel.Schema) (*storage.HeapFile, error) {
	key := relKey(name)
	c.mu.RLock()
	_, exists := c.relations[key]
	c.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("catalog: relation %q already exists", name)
	}
	schema = schema.Clone()
	schema.Name = key
	h, err := c.mgr.CreateHeap(strings.ToLower(key), schema)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.relations[key] = h
	c.mu.Unlock()
	return h, nil
}

// Relation looks up a relation by name.
func (c *Catalog) Relation(name string) (*storage.HeapFile, error) {
	c.mu.RLock()
	h, ok := c.relations[relKey(name)]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return h, nil
}

// Holds reports whether h is the heap of one of the catalog's relations:
// false once a DELETE rewrite has replaced it or DROP TABLE dropped it.
func (c *Catalog) Holds(h *storage.HeapFile) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.relations[relKey(h.Schema.Name)] == h
}

// ReplaceRelationContents rewrites a relation to contain exactly the
// given tuples (used by DELETE). The schema is unchanged. The tuples go
// into a fresh heap under the relation's next storage name (r, r.1, r.2,
// ...) as one logged transaction, and the catalog save that names the new
// heap is the commit point: a crash before it reopens the old contents,
// one after it the new ones, and Open removes whichever heap file the
// catalog no longer names.
func (c *Catalog) ReplaceRelationContents(name string, tuples []frel.Tuple) error {
	key := relKey(name)
	c.mu.RLock()
	h, ok := c.relations[key]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	// The rewrite renumbers the tuples, so the relation's order indexes go
	// first: a crash from here on leaves them without an entry file, which
	// Open rebuilds, never listing tids of the old contents.
	ixs := c.indexesOf(key)
	for _, ix := range ixs {
		if err := ix.dropFile(); err != nil {
			return err
		}
	}
	nh, err := c.mgr.CreateHeap(nextFileName(key, h.Name()), h.Schema)
	if err != nil {
		return err
	}
	if err := nh.AppendAll(&frel.Relation{Schema: h.Schema, Tuples: tuples}); err != nil {
		nh.Drop()
		return err
	}
	c.mu.Lock()
	c.relations[key] = nh
	c.mu.Unlock()
	if err := c.Save(); err != nil {
		return err
	}
	if err := h.Drop(); err != nil {
		return err
	}
	for _, ix := range ixs {
		if err := c.buildIndex(ix, nh); err != nil {
			return err
		}
	}
	return nil
}

// nextFileName returns the storage name after cur for the relation of
// catalog key key: the lower-cased name, then name.1, name.2, ... A '.'
// cannot occur in an SQL identifier, so no other relation's name collides.
func nextFileName(key, cur string) string {
	base := strings.ToLower(key)
	n, _ := strconv.Atoi(strings.TrimPrefix(cur, base+".")) // 0 for base itself
	return base + "." + strconv.Itoa(n+1)
}

// DropRelation removes a relation and deletes its heap file. The catalog
// is saved without the relation before the file disappears, so a crash
// between the two never leaves a catalog entry pointing at nothing; Open
// removes the heap file the catalog no longer names.
func (c *Catalog) DropRelation(name string) error {
	key := relKey(name)
	c.mu.Lock()
	h, ok := c.relations[key]
	if ok {
		delete(c.relations, key)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := c.dropIndexesOf(key); err != nil {
		return err
	}
	if err := c.Save(); err != nil {
		return err
	}
	return h.Drop()
}

// Relations returns the sorted names of all relations.
func (c *Catalog) Relations() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.relations))
	for n := range c.relations {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

func termKey(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// DefineTerm binds a linguistic term to a possibility distribution. Terms
// are case-insensitive; redefinition overwrites.
func (c *Catalog) DefineTerm(name string, t fuzzy.Trapezoid) error {
	if !t.Valid() {
		return fmt.Errorf("catalog: term %q has invalid distribution %v", name, t)
	}
	c.mu.Lock()
	c.terms[termKey(name)] = t
	c.mu.Unlock()
	return nil
}

// Term looks up a linguistic term.
func (c *Catalog) Term(name string) (fuzzy.Trapezoid, bool) {
	c.mu.RLock()
	t, ok := c.terms[termKey(name)]
	c.mu.RUnlock()
	return t, ok
}

// Terms returns the sorted names of all defined terms.
func (c *Catalog) Terms() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.terms))
	for n := range c.terms {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// DefinePaperTerms loads the linguistic-term dictionary of the paper's
// running examples (Figs. 1 and 2). The numeric parameters are
// reconstructed from the figures so that every satisfaction degree worked
// out in the paper is reproduced exactly:
//
//   - d(24 = medium young) = 0.8 and d(about 35 = medium young) = 0.5
//     (Section 2.2, Fig. 1);
//   - in Example 4.1, the temporary relation T = {about 40K: 0.4, high: 1},
//     the intermediate answers {Ann: 0.3, Ann: 0.7, Betty: 0.7}, and the
//     final answer {Ann: 0.7, Betty: 0.7}.
//
// AGE terms are in years, INCOME terms in thousands of dollars.
func (c *Catalog) DefinePaperTerms() {
	c.mu.Lock()
	for name, t := range PaperTerms() {
		// Distributions below are valid by construction.
		c.terms[termKey(name)] = t
	}
	c.mu.Unlock()
}

// PaperTerms returns the reconstructed Fig. 1 / Fig. 2 dictionary; see
// DefinePaperTerms.
func PaperTerms() map[string]fuzzy.Trapezoid {
	return map[string]fuzzy.Trapezoid{
		// AGE (years).
		"young":        fuzzy.Trap(0, 0, 22, 30),
		"medium young": fuzzy.Trap(20, 25, 30, 35),
		// The rising edge 30 → 30+15/7 makes the intersection with
		// "medium young" exactly 0.7, the degree of Betty's tuple in
		// Example 4.1.
		"middle age": fuzzy.Trap(30, 30+15.0/7, 47, 48),
		"old":        fuzzy.Trap(45, 55, 120, 120),
		"about 29":   fuzzy.Tri(28, 29, 30),
		"about 35":   fuzzy.Tri(30, 35, 40),
		// The 46..50 rising edge makes d(about 50 = middle age) = 0.4, the
		// degree of "about 40K" in T of Example 4.1.
		"about 50": fuzzy.Tri(46, 50, 54),

		// INCOME (thousands of dollars).
		"low":        fuzzy.Trap(0, 0, 20, 35),
		"medium low": fuzzy.Trap(20, 28, 35, 45),
		"about 25k":  fuzzy.Tri(20, 25, 30),
		"about 40k":  fuzzy.Tri(30, 40, 50),
		// medium high falls 68 → 78 and high rises 64 → 74, giving
		// d(medium high = high) = 0.7 (Ann 102's degree in Example 4.1).
		"medium high": fuzzy.Trap(50, 60, 68, 78),
		"high":        fuzzy.Trap(64, 74, 120, 120),
		// about 60K rises from 50, giving d(about 60K = high) = 0.3
		// (Ann 101's degree in Example 4.1).
		"about 60k": fuzzy.Tri(50, 60, 70),
	}
}
