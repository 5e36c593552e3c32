package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/frel"
)

// Order-index page format. An order index is a heap file whose records are
// not tuples but base-heap positions (tids), one 8-byte little-endian tid
// per record. The file reuses the heap page layout (uint16 count, then
// length-prefixed records), so the content-agnostic WAL redo, checkpoint,
// and crash-recovery machinery cover index files with no extra record
// types.
//
// An index is written once, by CREATE INDEX, and never appended to
// afterwards: its n records are the tids 0..n-1 of the base heap at build
// time, listed in the engine's stable order of the indexed attribute
// (frel.Compare, ties in tid order). The base tuples appended later (tids
// n and up) are the index's tail. A reader takes the file's order only as
// the start of its own sort, followed by the tail in tid order, so what
// the records say never decides the order it serves.

// IndexEntrySize is the serialized size of one index entry, a tid.
const IndexEntrySize = 8

// AppendIndexEntry serializes tid onto dst, the record HeapFile.AppendRaw
// appends to an index file.
func AppendIndexEntry(dst []byte, tid uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, tid)
}

// DecodeIndexEntry deserializes one index entry record.
func DecodeIndexEntry(rec []byte) (uint64, error) {
	if len(rec) != IndexEntrySize {
		return 0, fmt.Errorf("storage: index entry of %d bytes, want %d", len(rec), IndexEntrySize)
	}
	return binary.LittleEndian.Uint64(rec), nil
}

// ReadIndexEntries materializes every index entry record of the file.
func ReadIndexEntries(h *HeapFile) ([]uint64, error) {
	out := make([]uint64, 0, h.NumTuples())
	sc := h.Scan()
	defer sc.Close()
	for {
		rec, ok := sc.NextRaw()
		if !ok {
			break
		}
		tid, err := DecodeIndexEntry(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, tid)
	}
	return out, sc.Err()
}

// IndexSchema returns the placeholder schema an order-index heap is created
// with. Index records are never decoded as tuples; the schema only labels
// the file for recovery and debugging.
func IndexSchema() *frel.Schema {
	return frel.NewSchema("index", frel.Attribute{Name: "ENTRY", Kind: frel.KindNumber})
}
