package core

import (
	"errors"

	"repro/internal/storage"
)

// Snapshot reads (MVCC-lite). Heap files are append-only, so a consistent
// committed database state is fully described by one committed tuple
// count per relation, captured as an atomic cut under the storage
// manager's commit-publication lock. A read-only statement — or every
// statement of an explicit transaction — evaluates against such a cut:
// its heap scans are bounded to the snapshot's counts, so it never sees a
// torn transaction, never blocks behind the writer, and never observes a
// rollback. Relations the transaction itself has written are flipped to
// "live" visibility: the writer serializes against other writers (and
// validated its snapshot at first write), so live = snapshot + own
// writes.

// ErrTxnConflict reports a write-write transaction conflict: the relation
// was modified by a committed transaction after this transaction's
// snapshot was taken. The failed transaction is rolled back; the public
// API maps the error to a typed code so clients can retry.
var ErrTxnConflict = errors.New("transaction conflict")

// Snapshot is one consistent committed cut of the database's heap
// relations, plus the set of relations whose visibility has been upgraded
// to live (relations written by the owning transaction).
type Snapshot struct {
	heaps map[*storage.HeapFile]storage.HeapSnap
	live  map[*storage.HeapFile]bool
}

// takeSnapshot captures a fresh committed cut, or nil when the storage
// manager keeps no write-ahead log (NewMemEnv environments and NoWAL
// sessions read live; their writes are serialized against readers by the
// caller).
func (e *Env) takeSnapshot() *Snapshot {
	m := e.cat.Manager().Snapshot()
	if m == nil {
		return nil
	}
	return &Snapshot{heaps: m}
}

// Lookup returns h's visibility horizon inside the snapshot.
func (s *Snapshot) Lookup(h *storage.HeapFile) (storage.HeapSnap, bool) {
	sn, ok := s.heaps[h]
	return sn, ok
}

// Live reports whether h's visibility was upgraded to live (the owning
// transaction wrote it).
func (s *Snapshot) Live(h *storage.HeapFile) bool { return s.live[h] }

// SetLive upgrades h to live visibility.
func (s *Snapshot) SetLive(h *storage.HeapFile) {
	if s.live == nil {
		s.live = make(map[*storage.HeapFile]bool)
	}
	s.live[h] = true
}

// setSnapshot installs snap as the environment's read visibility for the
// duration of one evaluation and returns the restore function for the
// caller to defer. A nil snap means live reads.
func (e *Env) setSnapshot(snap *Snapshot) func() {
	prev := e.snap
	e.snap = snap
	return func() { e.snap = prev }
}

// heapVersion returns the version of h the current evaluation sees: the
// snapshot's committed version under snapshot visibility, the live
// mutation counter otherwise. Sort-cache entries are keyed and validated
// by this, so an entry built from a bounded snapshot scan is only ever
// served to readers of that same committed state.
func (e *Env) heapVersion(h *storage.HeapFile) uint64 {
	if e.snap != nil && !e.snap.Live(h) {
		if sn, ok := e.snap.Lookup(h); ok {
			return sn.Version
		}
	}
	return h.Version()
}
