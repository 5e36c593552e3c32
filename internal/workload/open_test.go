package workload

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// readCountFS counts every ReadAt made through it, and the bytes read, by
// file name: the reads of the buffer pool and those that bypass it alike.
type readCountFS struct {
	storage.FS
	mu    sync.Mutex
	calls map[string]int
	bytes map[string]int
}

func newReadCountFS(base storage.FS) *readCountFS {
	return &readCountFS{FS: base, calls: map[string]int{}, bytes: map[string]int{}}
}

func (c *readCountFS) OpenFile(path string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &readCountFile{File: f, fs: c, name: filepath.Base(path)}, nil
}

type readCountFile struct {
	storage.File
	fs   *readCountFS
	name string
}

func (f *readCountFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.mu.Lock()
	f.fs.calls[f.name]++
	f.fs.bytes[f.name] += n
	f.fs.mu.Unlock()
	return n, err
}

// TestOpenReadsNoRelation is the work gate of a cold statement's set-up:
// on a checkpointed database whose outer relation spans over a thousand
// pages, opening the database and planning a J query (EXPLAIN) reads at
// most one page of every heap file, relation or index: Open adopts each
// heap's checkpoint entry after checking its size and last page, and the
// planner's statistics come from the entry. Reading a relation's page
// headers, or its tuples to build statistics, trips it. S is rewritten by
// a DELETE before the checkpoint: the rewritten heap's statistics are
// recorded like any other's.
func TestOpenReadsNoRelation(t *testing.T) {
	dir := t.TempDir()
	fs := newReadCountFS(storage.OsFS{})
	opts := core.SessionOptions{BufferPages: 64, FS: fs}
	sess, err := core.OpenSessionOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{
		{Name: "R", Tuples: 8000, TupleBytes: 1024, Fanout: 7, Width: 5, Jitter: 0.5, Seed: 1},
		{Name: "S", Tuples: 700, TupleBytes: 128, Fanout: 7, Width: 5, Jitter: 0.5, Seed: 2},
	} {
		rel, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sess.Catalog().CreateRelation(p.Name, rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AppendAll(rel); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := execScript(sess, `CREATE INDEX s_a ON S (A); DELETE FROM S WHERE S.K = 3; CHECKPOINT;`); err != nil {
		t.Fatal(err)
	}
	r, err := sess.Catalog().Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() < 1000 {
		t.Fatalf("R spans %d pages, want at least 1000", r.NumPages())
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	fs.mu.Lock()
	clear(fs.calls)
	clear(fs.bytes)
	fs.mu.Unlock()
	sess, err = core.OpenSessionOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	out, err := execScript(sess, `EXPLAIN `+strings.TrimSuffix(classQueries["J"], "%s")+` WITH D >= 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !strings.Contains(out[0].String(), "merge-join") {
		t.Fatalf("EXPLAIN did not plan a merge join: %v", out)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	heaps := 0
	for name, calls := range fs.calls {
		if !strings.HasSuffix(name, ".heap") {
			continue
		}
		heaps++
		if calls > 1 || fs.bytes[name] > storage.PageSize {
			t.Errorf("%s: %d reads of %d bytes, want at most one page", name, calls, fs.bytes[name])
		}
	}
	t.Logf("reads by file: %v (bytes %v); %d heap files read", fs.calls, fs.bytes, heaps)
}
