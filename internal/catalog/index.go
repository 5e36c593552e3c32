package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/frel"
	"repro/internal/storage"
)

// Persistent order indexes. An index is a secondary file of
// storage.IndexEntry records on one numeric attribute of one relation,
// kept in the stable Definition 3.1 order (support begin, support end,
// base-heap position). The engine serves the extended merge-join's sort
// order from it instead of external-sorting the relation.
//
// Lifecycle and crash ordering:
//
//   - CreateIndex builds the entry file first (one logged transaction) and
//     saves the catalog last, so a crash in between leaves an orphaned
//     idx-*.heap file but never a catalog entry pointing at a half-built
//     index; Open removes orphans.
//   - DropIndex saves the catalog without the index before deleting the
//     file, mirroring DropRelation.
//   - Ordinary inserts append one entry per index in the same storage
//     transaction as the base-tuple append (see the core session), so the
//     committed counts of base and index move together and recovery keeps
//     them consistent.
//   - Bulk paths that bypass maintenance (workload loaders, DELETE's
//     contents swap) leave the counts unequal; the engine then falls back
//     to sorting and Open rebuilds the index from scratch.

// Index is a persistent secondary index on the Definition 3.1 order of one
// numeric attribute.
type Index struct {
	Name string // index name as created (case-insensitive key: upper)
	Rel  string // owning relation's catalog key
	Attr string // indexed attribute's schema name

	pos  int // attribute position in the relation schema
	heap *storage.HeapFile
}

// Pos returns the indexed attribute's position in the relation schema.
func (ix *Index) Pos() int { return ix.pos }

// Heap returns the index's entry file.
func (ix *Index) Heap() *storage.HeapFile { return ix.heap }

// indexHeapName returns the storage name of the index's entry file. The
// storage.IndexPrefix cannot collide with relation heaps: relation storage
// names are lower-cased SQL identifiers, which cannot contain '-'.
func indexHeapName(rel, attr string) string {
	return storage.IndexPrefix + strings.ToLower(rel) + "-" + strings.ToLower(attr)
}

// CreateIndex builds a persistent order index named name on relation rel's
// attribute attr. The build scans the relation's current contents (the
// caller runs at a transaction barrier, so everything is committed),
// sorts, writes the entry file as one transaction, and saves the catalog.
func (c *Catalog) CreateIndex(name, rel, attr string) (*Index, error) {
	key := relKey(name)
	c.mu.RLock()
	_, dup := c.indexes[key]
	h, relOK := c.relations[relKey(rel)]
	c.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("catalog: index %q already exists", name)
	}
	if !relOK {
		return nil, fmt.Errorf("catalog: unknown relation %q", rel)
	}
	pos, err := h.Schema.Resolve(attr)
	if err != nil {
		return nil, fmt.Errorf("catalog: create index %q: %w", name, err)
	}
	if h.Schema.Attrs[pos].Kind != frel.KindNumber {
		return nil, fmt.Errorf("catalog: create index %q: attribute %q is not numeric", name, attr)
	}
	ix := &Index{Name: name, Rel: relKey(rel), Attr: h.Schema.Attrs[pos].Name, pos: pos}
	c.mu.RLock()
	for _, other := range c.indexes {
		if other.Rel == ix.Rel && other.pos == pos {
			err = fmt.Errorf("catalog: relation %q attribute %q is already indexed by %q", rel, attr, other.Name)
			break
		}
	}
	c.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if err := c.buildIndex(ix, h); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.indexes[key] = ix
	c.mu.Unlock()
	if c.mgr.WALEnabled() {
		if err := c.Save(); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// buildIndex (re)creates ix's entry file from relation heap h's current
// contents: one scan, one stable sort, one transaction of entry appends.
func (c *Catalog) buildIndex(ix *Index, h *storage.HeapFile) error {
	rel, err := h.ReadAll()
	if err != nil {
		return err
	}
	entries := make([]storage.IndexEntry, 0, len(rel.Tuples))
	for i, t := range rel.Tuples {
		e, ok := storage.IndexEntryFor(t, ix.pos, uint64(i))
		if !ok {
			return fmt.Errorf("catalog: index %q: tuple %d has no numeric value on %q", ix.Name, i, ix.Attr)
		}
		entries = append(entries, e)
	}
	// Stable: Definition 3.1 ties stay in base-heap position order, the
	// order the engine's external sort of the relation produces.
	slices.SortStableFunc(entries, storage.CompareEntries)
	ih, err := c.mgr.CreateHeap(indexHeapName(ix.Rel, ix.Attr), storage.IndexSchema())
	if err != nil {
		return err
	}
	var tx *storage.Tx
	if c.mgr.WALEnabled() {
		if tx, err = c.mgr.Begin(); err != nil {
			ih.Drop()
			return err
		}
	}
	for _, e := range entries {
		if err := ih.AppendIndexEntry(e); err != nil {
			ih.Drop()
			return err
		}
	}
	if tx != nil {
		if err := tx.Commit(); err != nil {
			ih.Drop()
			return err
		}
	}
	if err := ih.Flush(); err != nil {
		ih.Drop()
		return err
	}
	ix.heap = ih
	return nil
}

// DropIndex removes an index and deletes its entry file. The catalog is
// saved without the index before the file disappears.
func (c *Catalog) DropIndex(name string) error {
	key := relKey(name)
	c.mu.Lock()
	ix, ok := c.indexes[key]
	if ok {
		delete(c.indexes, key)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("catalog: unknown index %q", name)
	}
	if c.mgr.WALEnabled() {
		if err := c.Save(); err != nil {
			return err
		}
	}
	return ix.heap.Drop()
}

// LookupIndex looks up an index by name.
func (c *Catalog) LookupIndex(name string) (*Index, bool) {
	c.mu.RLock()
	ix, ok := c.indexes[relKey(name)]
	c.mu.RUnlock()
	return ix, ok
}

// Indexes returns the sorted catalog keys of all indexes.
func (c *Catalog) Indexes() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.indexes))
	for n := range c.indexes {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// IndexForHeap returns the index on attribute position pos of the relation
// currently backed by heap h, or nil.
func (c *Catalog) IndexForHeap(h *storage.HeapFile, pos int) *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ix := range c.indexes {
		if ix.pos == pos && c.relations[ix.Rel] == h {
			return ix
		}
	}
	return nil
}

// IndexesForHeap returns every index of the relation currently backed by
// heap h, the set an insert must maintain.
func (c *Catalog) IndexesForHeap(h *storage.HeapFile) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Index
	for _, ix := range c.indexes {
		if c.relations[ix.Rel] == h {
			out = append(out, ix)
		}
	}
	return out
}

// dropIndexesOf removes (and deletes the files of) every index on relation
// key, for DropRelation's cascade. The caller saves the catalog afterwards.
func (c *Catalog) dropIndexesOf(key string) error {
	c.mu.Lock()
	var victims []*Index
	for n, ix := range c.indexes {
		if ix.Rel == key {
			victims = append(victims, ix)
			delete(c.indexes, n)
		}
	}
	c.mu.Unlock()
	for _, ix := range victims {
		if err := ix.heap.Drop(); err != nil {
			return err
		}
	}
	return nil
}

// rebuildIndexesOf rebuilds every index on relation key from its current
// heap, after a bulk rewrite (DELETE's contents swap) invalidated them.
func (c *Catalog) rebuildIndexesOf(key string) error {
	c.mu.RLock()
	h := c.relations[key]
	var victims []*Index
	for _, ix := range c.indexes {
		if ix.Rel == key {
			victims = append(victims, ix)
		}
	}
	c.mu.RUnlock()
	for _, ix := range victims {
		if err := ix.heap.Drop(); err != nil {
			return err
		}
		if err := c.buildIndex(ix, h); err != nil {
			return err
		}
	}
	return nil
}
