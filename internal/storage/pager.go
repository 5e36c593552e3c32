// Package storage implements the paged storage engine underneath the fuzzy
// database: 8 KiB pages (the page size of the paper's testbed, Section 9),
// file-backed pagers, a pinning buffer pool with LRU replacement, and
// append-only heap files of serialized tuples.
//
// All physical I/O is counted in Stats; the experiment harness combines the
// counts with a simulated per-I/O latency to model the paper's 1995 disk
// (see DESIGN.md, "Substitutions").
package storage

import (
	"fmt"
	"os"
	"sync/atomic"
)

// PageSize is the size of a disk page in bytes, matching the 8 K byte
// buffer pages of the paper's experiments.
const PageSize = 8192

// PageID identifies a page within one pager (file).
type PageID int64

// Stats accumulates physical I/O counters. One Stats may be shared by many
// pagers; counters are atomic so concurrent scans can share it.
type Stats struct {
	Reads     atomic.Int64 // physical page reads
	Writes    atomic.Int64 // physical page writes
	Hits      atomic.Int64 // buffer pool hits (no physical read)
	Evictions atomic.Int64 // frames evicted to make room
}

// IO returns the total number of physical page I/Os (reads + writes).
func (s *Stats) IO() int64 {
	return s.Reads.Load() + s.Writes.Load()
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Reads.Store(0)
	s.Writes.Store(0)
	s.Hits.Store(0)
	s.Evictions.Store(0)
}

// Snapshot returns the current counter values as plain integers.
func (s *Stats) Snapshot() (reads, writes, hits, evictions int64) {
	return s.Reads.Load(), s.Writes.Load(), s.Hits.Load(), s.Evictions.Load()
}

// String renders the counters.
func (s *Stats) String() string {
	r, w, h, e := s.Snapshot()
	return fmt.Sprintf("reads=%d writes=%d hits=%d evictions=%d", r, w, h, e)
}

// Pager provides page-granular access to one file. It performs physical
// I/O and counts it; callers normally go through a BufferPool instead of
// using a Pager directly. The page count is atomic so snapshot readers can
// bound a scan while the single writer allocates or truncates pages.
type Pager struct {
	path  string
	fs    FS
	f     File
	pages atomic.Int64
	stats *Stats
}

// OpenPagerFS creates (or truncates) the file at path on fs and returns an
// empty pager over it. stats may be shared across pagers; it must not be
// nil.
func OpenPagerFS(fs FS, path string, stats *Stats) (*Pager, error) {
	if stats == nil {
		return nil, fmt.Errorf("storage: OpenPagerFS requires non-nil stats")
	}
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open pager: %w", err)
	}
	return &Pager{path: path, fs: fs, f: f, stats: stats}, nil
}

// OpenPagerExistingFS opens the file at path on fs without truncating it,
// recovering the page count from the file size. The file must exist and
// be page-aligned.
func OpenPagerExistingFS(fs FS, path string, stats *Stats) (*Pager, error) {
	if stats == nil {
		return nil, fmt.Errorf("storage: OpenPagerExistingFS requires non-nil stats")
	}
	f, err := fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open existing pager: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat pager: %w", err)
	}
	if size%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: file %s is %d bytes, not page aligned", path, size)
	}
	p := &Pager{path: path, fs: fs, f: f, stats: stats}
	p.pages.Store(size / PageSize)
	return p, nil
}

// NumPages returns the number of allocated pages.
func (p *Pager) NumPages() int64 { return p.pages.Load() }

// Path returns the backing file path.
func (p *Pager) Path() string { return p.path }

// Allocate reserves a new page at the end of the file and returns its ID.
// The page contents are undefined until written.
func (p *Pager) Allocate() PageID {
	return PageID(p.pages.Add(1) - 1)
}

// Truncate cuts the file back to numPages pages, discarding everything
// beyond. Used by transaction rollback to drop pages appended by the
// aborted transaction; the buffer pool's frames for the cut region must be
// discarded first.
func (p *Pager) Truncate(numPages int64) error {
	if err := p.f.Truncate(numPages * PageSize); err != nil {
		return fmt.Errorf("storage: truncate %s: %w", p.path, err)
	}
	p.pages.Store(numPages)
	return nil
}

// ReadPage reads page id into buf (which must be PageSize bytes long).
func (p *Pager) ReadPage(id PageID, buf []byte) error {
	if n := p.pages.Load(); int64(id) < 0 || int64(id) >= n {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, n)
	}
	if len(buf) != PageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	n, err := p.f.ReadAt(buf, int64(id)*PageSize)
	if err != nil && n < PageSize {
		// A page that was allocated but never flushed reads as zeroes.
		for i := n; i < PageSize; i++ {
			buf[i] = 0
		}
	}
	p.stats.Reads.Add(1)
	return nil
}

// WritePage writes buf (PageSize bytes) to page id.
func (p *Pager) WritePage(id PageID, buf []byte) error {
	if n := p.pages.Load(); int64(id) < 0 || int64(id) >= n {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, n)
	}
	if len(buf) != PageSize {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if _, err := p.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	p.stats.Writes.Add(1)
	return nil
}

// Sync flushes the file's contents to stable storage.
func (p *Pager) Sync() error {
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync %s: %w", p.path, err)
	}
	return nil
}

// Close closes the backing file without removing it.
func (p *Pager) Close() error {
	if p.f == nil {
		return nil
	}
	err := p.f.Close()
	p.f = nil
	return err
}

// Remove closes and deletes the backing file.
func (p *Pager) Remove() error {
	cerr := p.Close()
	rerr := p.fs.Remove(p.path)
	if cerr != nil {
		return cerr
	}
	if rerr != nil && !os.IsNotExist(rerr) {
		return rerr
	}
	return nil
}
