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

type relationMeta struct {
	Name  string     `json:"name"`
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
func Open(mgr *storage.Manager) (c *Catalog, fresh bool, err error) {
	data, err := readFileFS(mgr.FS(), filepath.Join(mgr.Dir(), fileName))
	if os.IsNotExist(err) {
		return New(mgr), true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("catalog: read: %w", err)
	}
	var cf catalogFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, false, fmt.Errorf("catalog: parse %s: %w", fileName, err)
	}
	c = New(mgr)
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
		h, err := mgr.OpenHeap(strings.ToLower(relKey(meta.Name)), schema)
		if err != nil {
			return nil, false, fmt.Errorf("catalog: reopen relation %q: %w", meta.Name, err)
		}
		c.relations[relKey(meta.Name)] = h
	}
	if err := c.openIndexes(cf.Indexes); err != nil {
		return nil, false, err
	}
	return c, false, nil
}

// openIndexes restores the saved order indexes. Each entry file is
// reopened and kept when it covers a prefix of its base relation (a
// relation that grew since the build only lengthens the index's tail);
// an entry file that is missing (DELETE deletes it before its contents
// swap and writes it again after) or longer than its relation is rebuilt
// from scratch. idx-*.heap files not referenced by the catalog (orphans of a
// crash between index build and catalog save) are deleted.
// Any disk mutation is sealed with a checkpoint so the write-ahead log
// never references a removed or superseded file.
func (c *Catalog) openIndexes(metas []indexMeta) error {
	referenced := make(map[string]bool, len(metas))
	mutated := false
	for _, m := range metas {
		key := relKey(m.Name)
		c.mu.RLock()
		h := c.relations[relKey(m.Rel)]
		c.mu.RUnlock()
		if h == nil {
			return fmt.Errorf("catalog: index %q references unknown relation %q", m.Name, m.Rel)
		}
		pos, err := h.Schema.Resolve(m.Attr)
		if err != nil {
			return fmt.Errorf("catalog: index %q: %w", m.Name, err)
		}
		ix := &Index{Name: m.Name, Rel: relKey(m.Rel), Attr: h.Schema.Attrs[pos].Name, pos: pos}
		referenced[indexHeapName(ix.Rel, ix.Attr)+".heap"] = true
		ih, err := c.mgr.OpenHeap(indexHeapName(ix.Rel, ix.Attr), storage.IndexSchema())
		if err == nil && ih.NumTuples() <= h.NumTuples() {
			ix.heap = ih
		} else {
			if err == nil {
				if derr := ih.Drop(); derr != nil {
					return derr
				}
			}
			if err := c.buildIndex(ix, h); err != nil {
				return err
			}
			mutated = true
		}
		c.mu.Lock()
		c.indexes[key] = ix
		c.mu.Unlock()
	}
	names, err := c.mgr.FS().ReadDir(c.mgr.Dir())
	if err != nil {
		return err
	}
	for _, n := range names {
		if strings.HasPrefix(n, storage.IndexPrefix) && strings.HasSuffix(n, ".heap") && !referenced[n] {
			if err := c.mgr.FS().Remove(filepath.Join(c.mgr.Dir(), n)); err != nil {
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
