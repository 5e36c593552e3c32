package catalog

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/storage"
)

// Persistent order indexes. An index is a secondary file of base-heap
// positions (tids) on one numeric attribute of one relation, listed in the
// engine's one stable order (frel.Compare, then tid), sorted by the same
// extsort.SortTids the reader runs. The engine serves the extended
// merge-join's sort order from it instead of external-sorting the
// relation: the reader starts its in-memory sort from the file's order,
// which the sort then confirms in about one comparison per tuple.
//
// An index is written once and never maintained: its n entries order the
// relation's first n tuples, the ones it held when the index was built.
// Tuples appended later, by INSERT or a bulk load, are the index's tail,
// which the reader appends in tid order before it sorts (see the core
// sort cache's decodedSort). Only a rewrite that moves tuples invalidates
// it.
//
// Lifecycle and crash ordering:
//
//   - CreateIndex builds the entry file first (one logged transaction) and
//     saves the catalog last, so a crash in between leaves an orphaned
//     idx-*.heap file but never a catalog entry pointing at a half-built
//     index; Open removes orphans.
//   - DropIndex saves the catalog without the index before deleting the
//     file, mirroring DropRelation.
//   - DELETE's rewrite renumbers the tuples, so it deletes the relation's
//     entry files before the rewrite and builds them again after it; Open
//     rebuilds an index whose file is missing (a crash in between) or
//     longer than its relation.
//   - The reader does not trust an entry file: it sorts whatever tids the
//     file lists, so a file listing the wrong ones costs comparisons but
//     never changes an answer, fails a statement or sends it to the
//     external sort.

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

// dropFile deletes the index's entry file, if it has one. An index left
// without a file serves nothing until a build writes one; Open rebuilds it.
func (ix *Index) dropFile() error {
	ih := ix.heap
	ix.heap = nil
	if ih == nil {
		return nil
	}
	return ih.Drop()
}

// indexHeapName returns the storage name of the index's entry file. The
// storage.IndexPrefix cannot collide with relation heaps: relation storage
// names are lower-cased SQL identifiers, perhaps with a rewrite number
// after a '.', which cannot contain '-'.
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
	if err := c.Save(); err != nil {
		return nil, err
	}
	return ix, nil
}

// buildIndex (re)creates ix's entry file from relation heap h's current
// contents: one scan, one stable sort of the tids, one transaction of
// entry appends. A build that fails rolls its transaction back and deletes
// the file.
func (c *Catalog) buildIndex(ix *Index, h *storage.HeapFile) error {
	rel, err := h.ReadAll()
	if err != nil {
		return err
	}
	if len(rel.Tuples) > math.MaxInt32 {
		return fmt.Errorf("catalog: index %q: %d tuples are more than an index holds", ix.Name, len(rel.Tuples))
	}
	tids := make([]int32, len(rel.Tuples))
	for i := range tids {
		tids[i] = int32(i)
	}
	// The engine's one stable sort, so the file is exactly the order a
	// reader's sort confirms.
	if _, err := extsort.SortTids(h.Schema, rel.Tuples, tids, extsort.Order{Attr: ix.pos}); err != nil {
		return err
	}
	ih, err := c.mgr.CreateHeap(indexHeapName(ix.Rel, ix.Attr), storage.IndexSchema())
	if err != nil {
		return err
	}
	if err := appendEntries(c.mgr, ih, tids); err != nil {
		ih.Drop()
		return err
	}
	ix.heap = ih
	return nil
}

// appendEntries appends the tids to ih as one transaction and flushes the
// file.
func appendEntries(mgr *storage.Manager, ih *storage.HeapFile, tids []int32) error {
	tx, err := mgr.Begin()
	if err != nil {
		return err
	}
	var rec []byte
	for _, tid := range tids {
		rec = storage.AppendIndexEntry(rec[:0], uint64(tid))
		if err := ih.AppendRaw(rec); err != nil {
			return tx.Abort(err)
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	return ih.Flush()
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
	if err := c.Save(); err != nil {
		return err
	}
	return ix.dropFile()
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
// currently backed by heap h, or nil. An index whose rebuild failed has no
// entry file and is not returned.
func (c *Catalog) IndexForHeap(h *storage.HeapFile, pos int) *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ix := range c.indexes {
		if ix.pos == pos && ix.heap != nil && c.relations[ix.Rel] == h {
			return ix
		}
	}
	return nil
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
		if err := ix.dropFile(); err != nil {
			return err
		}
	}
	return nil
}

// indexesOf returns every index on relation key.
func (c *Catalog) indexesOf(key string) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Index
	for _, ix := range c.indexes {
		if ix.Rel == key {
			out = append(out, ix)
		}
	}
	return out
}
