package storage

import (
	"fmt"
	"sync"
)

// frameKey identifies a page across all files sharing the pool.
type frameKey struct {
	pager *Pager
	id    PageID
}

// Frame is a buffered page. Callers obtain frames pinned from the pool,
// read or modify Data, and must Unpin when done (marking the frame dirty if
// modified). Pinned frames are never evicted — the property the extended
// merge-join relies on when it keeps the pages of the current Rng(r) in
// memory (Section 3 of the paper).
//
// A frame may be pinned by several goroutines at once (snapshot readers
// scanning a relation the writer is appending to); Latch arbitrates access
// to Data in that case. Heap scans hold it shared per record, appends hold
// it exclusively per record, so a reader never waits longer than one tuple
// copy. A PageWriter's page is the exception: it fills an unlogged heap no
// one scans while it is written, so it takes no latch.
type Frame struct {
	pager   *Pager
	ID      PageID
	Data    []byte
	Latch   sync.RWMutex // guards Data when a frame is shared across goroutines
	pins    int
	dirty   bool
	nosteal bool // holds uncommitted data; must not be written out

	// prev and next link the frame into the pool's LRU ring while it is
	// unpinned; both are nil while it is pinned.
	prev, next *Frame
}

// BufferPool caches up to capacity pages across any number of pagers, with
// LRU replacement among unpinned frames. It mirrors the fixed-size main
// memory buffer of the paper's experiments (2 MB = 256 pages).
//
// The pool is safe for concurrent use: a single mutex guards the frame
// table, the LRU list, and pin counts, so the partition workers of a
// parallel merge-join (and parallel sort-run writers) can share one pool.
// Physical page I/O performed on a miss or an eviction happens under the
// lock, serializing disk access exactly like the single disk arm of the
// paper's testbed. Frame.Data of a pinned frame may be read or written
// without the lock — a pinned frame is never evicted or handed to another
// page — but goroutines sharing one pinned frame must take Frame.Latch.
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	frames   map[frameKey]*Frame
	stats    *Stats

	// lru is the sentinel of the ring of unpinned frames: lru.next is the
	// least recently used one, lru.prev the most recently unpinned.
	lru Frame

	// release, when set, is called (with mu held) if every evictable frame
	// is no-steal: it must make the covering WAL records durable, after
	// which makeRoom clears the no-steal marks and retries. It must not
	// touch the pool.
	release func() error

	// free holds page buffers recycled from evicted frames, capped at
	// capacity. Under pool pressure every admission evicts, so without
	// recycling a scan-heavy query allocates one garbage page buffer per
	// page fetch — the dominant allocation of cold sorts on small pools.
	// freeFrames does the same for the frames themselves.
	free       [][]byte
	freeFrames []*Frame
}

// NewBufferPool creates a pool with the given page capacity (minimum 1).
func NewBufferPool(capacity int, stats *Stats) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if stats == nil {
		stats = &Stats{}
	}
	bp := &BufferPool{
		capacity: capacity,
		frames:   make(map[frameKey]*Frame, capacity),
		stats:    stats,
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	return bp
}

// Capacity returns the pool's page capacity.
func (bp *BufferPool) Capacity() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.capacity
}

// Stats returns the pool's shared I/O statistics.
func (bp *BufferPool) Stats() *Stats { return bp.stats }

// PinnedPages returns the number of currently pinned frames, for tests and
// leak detection.
func (bp *BufferPool) PinnedPages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, f := range bp.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// Get returns the frame of page id in pager p, pinned. It reads the page
// from disk on a miss, evicting the least recently used unpinned frame if
// the pool is full.
func (bp *BufferPool) Get(p *Pager, id PageID) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	key := frameKey{p, id}
	if f, ok := bp.frames[key]; ok {
		bp.stats.Hits.Add(1)
		bp.pin(f)
		return f, nil
	}
	f, err := bp.admit(p, id)
	if err != nil {
		return nil, err
	}
	if err := p.ReadPage(id, f.Data); err != nil {
		bp.discard(f)
		return nil, err
	}
	return f, nil
}

// NewPage allocates a fresh page in pager p and returns it pinned with
// zeroed contents (no physical read). A pool with no room for it leaves
// the pager's page count as it was.
func (bp *BufferPool) NewPage(p *Pager) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id := p.Allocate()
	f, err := bp.admit(p, id)
	if err != nil {
		p.pages.Add(-1)
		return nil, err
	}
	for i := range f.Data {
		f.Data[i] = 0
	}
	f.dirty = true
	return f, nil
}

// admit makes room for, registers, and pins a new frame for (p, id).
func (bp *BufferPool) admit(p *Pager, id PageID) (*Frame, error) {
	if err := bp.makeRoom(); err != nil {
		return nil, err
	}
	var f *Frame
	if n := len(bp.freeFrames); n > 0 {
		f = bp.freeFrames[n-1]
		bp.freeFrames = bp.freeFrames[:n-1]
	} else {
		f = new(Frame)
	}
	f.pager, f.ID, f.Data, f.pins = p, id, bp.pageBuf(), 1
	f.dirty, f.nosteal = false, false
	bp.frames[frameKey{p, id}] = f
	return f, nil
}

// pageBuf returns a page buffer, recycling one from an evicted frame when
// available. Callers fully initialize the contents (ReadPage on a miss,
// explicit zeroing in NewPage), so stale bytes never leak.
func (bp *BufferPool) pageBuf() []byte {
	if n := len(bp.free); n > 0 {
		b := bp.free[n-1]
		bp.free = bp.free[:n-1]
		return b
	}
	if b, ok := closedPoolPages.Get().(*[PageSize]byte); ok {
		return b[:]
	}
	return make([]byte, PageSize)
}

// closedPoolPages holds the page buffers of closed pools. A process that
// opens and closes a database per statement otherwise allocates a pool's
// worth of buffers (2 MB at the default size) at every open, which is
// most of what such a statement allocates once its query is lean: enough
// to start a garbage collection inside every short statement.
var closedPoolPages sync.Pool

// Close empties the pool, handing its page buffers to later pools of the
// process. The pool and every frame it handed out are dead afterwards;
// dirty frames are not written (FlushAll first to keep them).
func (bp *BufferPool) Close() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		closedPoolPages.Put((*[PageSize]byte)(f.Data))
	}
	for _, b := range bp.free {
		closedPoolPages.Put((*[PageSize]byte)(b))
	}
	bp.frames = make(map[frameKey]*Frame)
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	bp.free, bp.freeFrames = nil, nil
}

func (bp *BufferPool) makeRoom() error {
	released := false
	for len(bp.frames) >= bp.capacity {
		var victim *Frame
		for f := bp.lru.next; f != &bp.lru; f = f.next {
			if !f.nosteal {
				victim = f
				break
			}
		}
		if victim == nil {
			if bp.lru.next == &bp.lru {
				return fmt.Errorf("storage: buffer pool exhausted: all %d frames pinned", len(bp.frames))
			}
			// Every unpinned frame holds uncommitted data. Force the WAL
			// out so writing them respects the WAL-ahead invariant, then
			// steal normally.
			if bp.release == nil || released {
				return fmt.Errorf("storage: buffer pool exhausted: all unpinned frames are no-steal")
			}
			if err := bp.release(); err != nil {
				return err
			}
			for _, f := range bp.frames {
				f.nosteal = false
			}
			released = true
			continue
		}
		if err := bp.evict(victim); err != nil {
			return err
		}
	}
	return nil
}

// SetRelease installs the callback makeRoom invokes when pool pressure
// requires writing no-steal frames; see the field comment.
func (bp *BufferPool) SetRelease(fn func() error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.release = fn
}

// MarkNoSteal flags f (which the caller holds pinned) as carrying
// uncommitted data: it is skipped by eviction until ClearNoSteal.
func (bp *BufferPool) MarkNoSteal(f *Frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f.nosteal = true
}

// ClearNoSteal drops every no-steal mark; called once the WAL records
// covering the marked frames are durable (commit or checkpoint).
func (bp *BufferPool) ClearNoSteal() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		f.nosteal = false
	}
}

func (bp *BufferPool) evict(f *Frame) error {
	if f.dirty {
		if err := f.pager.WritePage(f.ID, f.Data); err != nil {
			return err
		}
		f.dirty = false
	}
	bp.discard(f)
	bp.stats.Evictions.Add(1)
	return nil
}

func (bp *BufferPool) discard(f *Frame) {
	bp.unlink(f)
	delete(bp.frames, frameKey{f.pager, f.ID})
	// Frames are only discarded unpinned (or by the admitting caller on a
	// read error), and the pin contract forbids touching the frame or its
	// Data afterwards, so both can be recycled for the next admission.
	if f.Data != nil && len(bp.free) < bp.capacity {
		bp.free = append(bp.free, f.Data)
	}
	f.Data, f.pager = nil, nil
	if len(bp.freeFrames) < bp.capacity {
		bp.freeFrames = append(bp.freeFrames, f)
	}
}

// unlink takes f out of the LRU ring, if it is in it.
func (bp *BufferPool) unlink(f *Frame) {
	if f.next != nil {
		f.prev.next, f.next.prev = f.next, f.prev
		f.prev, f.next = nil, nil
	}
}

func (bp *BufferPool) pin(f *Frame) {
	bp.unlink(f)
	f.pins++
}

// Unpin releases one pin on f; dirty marks the frame as modified so it is
// written back before eviction. It panics on unbalanced unpins.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned frame %d", f.ID))
	}
	if dirty {
		f.dirty = true
	}
	f.pins--
	if f.pins == 0 {
		f.prev, f.next = bp.lru.prev, &bp.lru
		bp.lru.prev.next = f
		bp.lru.prev = f
	}
}

// FlushAll writes every dirty frame back to its pager. Pins are left
// untouched.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if f.dirty {
			if err := f.pager.WritePage(f.ID, f.Data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// DiscardPagesFrom forgets every frame of p with ID >= from without
// writing it back, used by transaction rollback to drop pages the aborted
// transaction appended (their contents must never reach the disk image
// the pager is about to truncate away). Frames in the cut must be
// unpinned: rollback runs with no reader inside the rolled-back region,
// since snapshot scans never exceed the committed bound.
func (bp *BufferPool) DiscardPagesFrom(p *Pager, from PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for key, f := range bp.frames {
		if key.pager != p || key.id < from {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("storage: DiscardPagesFrom: page %d still pinned", f.ID)
		}
		bp.discard(f)
	}
	return nil
}

// DiscardPager forgets every frame belonging to p without writing dirty
// frames back, for files about to be removed or recycled: flushing a
// dropped temp's dirty pages would be pure wasted I/O. Frames of p must
// be unpinned.
func (bp *BufferPool) DiscardPager(p *Pager) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for key, f := range bp.frames {
		if key.pager != p {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("storage: DiscardPager: page %d still pinned", f.ID)
		}
		bp.discard(f)
	}
	return nil
}

// DropPager flushes and forgets every frame belonging to p, e.g. before
// removing a temporary file. Frames of p must be unpinned.
func (bp *BufferPool) DropPager(p *Pager) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for key, f := range bp.frames {
		if key.pager != p {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("storage: DropPager: page %d still pinned", f.ID)
		}
		if f.dirty {
			if err := p.WritePage(f.ID, f.Data); err != nil {
				return err
			}
		}
		bp.discard(f)
	}
	return nil
}
