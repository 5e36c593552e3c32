package storage

import (
	"fmt"
	"io"
	"os"
	"path"
	"sync"
)

// MemFS is an in-memory FS for tests: it makes the crash-recovery property
// test hermetic (no real fsyncs, no leaked temp files) and fast enough to
// sweep thousands of injection points. It is not a faithful page cache —
// every write is immediately "durable" — which is exactly what the fault
// harness wants: FaultFS layered on top decides which writes are lost.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

func memPath(p string) string { return path.Clean(p) }

// OpenFile opens p, honoring os.O_CREATE and os.O_TRUNC. Opening a missing
// file without O_CREATE fails with an error satisfying os.IsNotExist.
func (m *MemFS) OpenFile(p string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = memPath(p)
	_, ok := m.files[p]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: p, Err: os.ErrNotExist}
		}
		m.files[p] = nil
	} else if flag&os.O_TRUNC != 0 {
		m.files[p] = nil
	}
	return &memFile{fs: m, path: p}, nil
}

// ReadDir lists the entry names directly under dir.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = memPath(dir)
	var names []string
	for p := range m.files {
		if path.Dir(p) == dir {
			names = append(names, path.Base(p))
		}
	}
	return names, nil
}

// Remove deletes p.
func (m *MemFS) Remove(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = memPath(p)
	if _, ok := m.files[p]; !ok {
		return &os.PathError{Op: "remove", Path: p, Err: os.ErrNotExist}
	}
	delete(m.files, p)
	return nil
}

// Rename atomically replaces newpath with oldpath.
func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = memPath(oldpath), memPath(newpath)
	data, ok := m.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	m.files[newpath] = data
	delete(m.files, oldpath)
	return nil
}

// SyncDir is a no-op: MemFS directory entries are always durable.
func (m *MemFS) SyncDir(dir string) error { return nil }

// memFile addresses one MemFS entry. Handles stay usable after Rename of
// their path (they resolve the path on each operation, matching the
// by-inode behavior the engine relies on closely enough for tests, which
// reopen after renames anyway).
type memFile struct {
	fs   *MemFS
	path string
}

func (f *memFile) data() ([]byte, error) {
	d, ok := f.fs.files[f.path]
	if !ok {
		return nil, &os.PathError{Op: "io", Path: f.path, Err: os.ErrNotExist}
	}
	return d, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	d, err := f.data()
	if err != nil {
		return 0, err
	}
	if off >= int64(len(d)) {
		return 0, io.EOF
	}
	n := copy(p, d[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	d, err := f.data()
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	end := off + int64(len(p))
	if end > int64(len(d)) {
		// Amortized growth: a file written page by page is not copied
		// whole on every append.
		d = append(d, make([]byte, end-int64(len(d)))...)
	}
	copy(d[off:end], p)
	f.fs.files[f.path] = d
	return len(p), nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	d, err := f.data()
	if err != nil {
		return 0, err
	}
	return int64(len(d)), nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	d, err := f.data()
	if err != nil {
		return err
	}
	if size <= int64(len(d)) {
		f.fs.files[f.path] = d[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, d)
	f.fs.files[f.path] = grown
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
