package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// The catalog persists itself as catalog.json in the managed directory:
// relation schemas (the heap files carry only tuples) and the
// linguistic-term dictionary. Open restores a previously saved database;
// Save is called by sessions after DDL and term definitions.

// catalogFile is the JSON layout of catalog.json.
type catalogFile struct {
	Relations []relationMeta        `json:"relations"`
	Indexes   []indexMeta           `json:"indexes,omitempty"`
	Terms     map[string][4]float64 `json:"terms"`
}

type indexMeta struct {
	Name string `json:"name"`
	Rel  string `json:"rel"`
	Attr string `json:"attr"`
}

// relationMeta is one relation's entry. File is its storage name where
// that is not the lower-cased name: each DELETE writes the relation under
// the next one.
type relationMeta struct {
	Name  string     `json:"name"`
	File  string     `json:"file,omitempty"`
	Pad   int        `json:"pad,omitempty"`
	Attrs []attrMeta `json:"attrs"`
}

type attrMeta struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// fileName is the catalog's file name within the managed directory.
const fileName = "catalog.json"

// Save writes the catalog (schemas and terms) to catalog.json in the
// manager's directory and flushes every relation's pages to disk, so that
// Open can restore the database later.
func (c *Catalog) Save() error {
	var cf catalogFile
	// Snapshot the maps, then do the I/O without holding the lock.
	c.mu.RLock()
	cf.Terms = make(map[string][4]float64, len(c.terms))
	for name, t := range c.terms {
		cf.Terms[name] = [4]float64{t.A, t.B, t.C, t.D}
	}
	heaps := make(map[string]*storage.HeapFile, len(c.relations))
	names := make([]string, 0, len(c.relations))
	for name, h := range c.relations {
		heaps[name] = h
		names = append(names, name)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		h := heaps[name]
		if err := h.Flush(); err != nil {
			return err
		}
		meta := relationMeta{Name: name, Pad: h.Schema.Pad}
		if f := h.Name(); f != strings.ToLower(name) {
			meta.File = f
		}
		for _, a := range h.Schema.Attrs {
			meta.Attrs = append(meta.Attrs, attrMeta{Name: a.Name, Kind: a.Kind.String()})
		}
		cf.Relations = append(cf.Relations, meta)
	}
	c.mu.RLock()
	ixNames := make([]string, 0, len(c.indexes))
	for n := range c.indexes {
		ixNames = append(ixNames, n)
	}
	ixs := make(map[string]*Index, len(c.indexes))
	for n, ix := range c.indexes {
		ixs[n] = ix
	}
	c.mu.RUnlock()
	sort.Strings(ixNames)
	for _, n := range ixNames {
		ix := ixs[n]
		if ix.heap != nil {
			if err := ix.heap.Flush(); err != nil {
				return err
			}
		}
		cf.Indexes = append(cf.Indexes, indexMeta{Name: ix.Name, Rel: ix.Rel, Attr: ix.Attr})
	}
	data, err := json.MarshalIndent(&cf, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: marshal: %w", err)
	}
	// Write-then-rename through the manager's file system, fsyncing the
	// temporary file and the directory: a crash leaves either the old
	// catalog or the new one, never a torn mixture.
	fs := c.mgr.FS()
	path := filepath.Join(c.mgr.Dir(), fileName)
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: write: %w", err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return fmt.Errorf("catalog: write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("catalog: write: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("catalog: write: %w", err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("catalog: write: %w", err)
	}
	if err := fs.SyncDir(c.mgr.Dir()); err != nil {
		return fmt.Errorf("catalog: write: %w", err)
	}
	return nil
}

// Open restores the catalog saved in the manager's directory. If no
// catalog file exists, it returns a fresh empty catalog and fresh = true.
// Either way every heap file the catalog does not name (the orphan of a
// crash between a heap's creation and the catalog save that names it, or
// between a save and the removal of a heap it no longer names) is removed.
func Open(mgr *storage.Manager) (c *Catalog, fresh bool, err error) {
	c = New(mgr)
	data, err := readFileFS(mgr.FS(), filepath.Join(mgr.Dir(), fileName))
	switch {
	case os.IsNotExist(err):
		return c, true, c.sweep(false)
	case err != nil:
		return nil, false, fmt.Errorf("catalog: read: %w", err)
	}
	var cf catalogFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, false, fmt.Errorf("catalog: parse %s: %w", fileName, err)
	}
	for name, corners := range cf.Terms {
		t, err := fuzzy.NewTrap(corners[0], corners[1], corners[2], corners[3])
		if err != nil {
			return nil, false, fmt.Errorf("catalog: term %q: %w", name, err)
		}
		c.terms[termKey(name)] = t
	}
	for _, meta := range cf.Relations {
		schema := &frel.Schema{Name: relKey(meta.Name), Pad: meta.Pad}
		for _, a := range meta.Attrs {
			var kind frel.Kind
			switch a.Kind {
			case frel.KindNumber.String():
				kind = frel.KindNumber
			case frel.KindString.String():
				kind = frel.KindString
			default:
				return nil, false, fmt.Errorf("catalog: relation %q: unknown attribute kind %q", meta.Name, a.Kind)
			}
			schema.Attrs = append(schema.Attrs, frel.Attribute{Name: a.Name, Kind: kind})
		}
		file := meta.File
		if file == "" {
			file = strings.ToLower(relKey(meta.Name))
		}
		h, err := mgr.OpenHeap(file, schema)
		if err != nil {
			return nil, false, fmt.Errorf("catalog: reopen relation %q: %w", meta.Name, err)
		}
		c.relations[relKey(meta.Name)] = h
	}
	rebuilt, err := c.openIndexes(cf.Indexes)
	if err != nil {
		return nil, false, err
	}
	return c, false, c.sweep(rebuilt)
}

// openIndexes restores the saved order indexes and reports whether it
// rebuilt any. Each entry file is reopened and kept when it covers a
// prefix of its base relation (a relation that grew since the build only
// lengthens the index's tail); an entry file that is missing (DELETE
// deletes it before its rewrite and writes it again after) or longer than
// its relation is rebuilt from scratch.
func (c *Catalog) openIndexes(metas []indexMeta) (rebuilt bool, err error) {
	for _, m := range metas {
		key := relKey(m.Name)
		c.mu.RLock()
		h := c.relations[relKey(m.Rel)]
		c.mu.RUnlock()
		if h == nil {
			return false, fmt.Errorf("catalog: index %q references unknown relation %q", m.Name, m.Rel)
		}
		pos, err := h.Schema.Resolve(m.Attr)
		if err != nil {
			return false, fmt.Errorf("catalog: index %q: %w", m.Name, err)
		}
		ix := &Index{Name: m.Name, Rel: relKey(m.Rel), Attr: h.Schema.Attrs[pos].Name, pos: pos}
		ih, err := c.mgr.OpenHeap(indexHeapName(ix.Rel, ix.Attr), storage.IndexSchema())
		if err == nil && ih.NumTuples() <= h.NumTuples() {
			ix.heap = ih
		} else {
			if err == nil {
				if derr := ih.Drop(); derr != nil {
					return false, derr
				}
			}
			if err := c.buildIndex(ix, h); err != nil {
				return false, err
			}
			rebuilt = true
		}
		c.mu.Lock()
		c.indexes[key] = ix
		c.mu.Unlock()
	}
	return rebuilt, nil
}

// sweep removes every heap file in the directory that is neither a
// relation's nor an index's, then, when it removed one or mutated is set
// (the caller rewrote a file), checkpoints, so the write-ahead log never
// references a removed or superseded file.
func (c *Catalog) sweep(mutated bool) error {
	named := make(map[string]bool, len(c.relations)+len(c.indexes))
	for _, h := range c.relations {
		named[h.Name()+".heap"] = true
	}
	for _, ix := range c.indexes {
		if ix.heap != nil {
			named[ix.heap.Name()+".heap"] = true
		}
	}
	fs, dir := c.mgr.FS(), c.mgr.Dir()
	names, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".heap") && !named[n] {
			if err := fs.Remove(filepath.Join(dir, n)); err != nil {
				return err
			}
			mutated = true
		}
	}
	if mutated {
		return c.mgr.Checkpoint()
	}
	return nil
}

// readFileFS reads the whole file at path through fs.
func readFileFS(fs storage.FS, path string) ([]byte, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if size > 0 {
		if n, err := f.ReadAt(data, 0); int64(n) < size {
			return nil, err
		}
	}
	return data, nil
}
