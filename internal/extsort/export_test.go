package extsort

// The helpers FuzzSortOrder shares with this package's own tests. It is in
// the external test package because it builds order indexes through
// catalog, which sorts them with SortTids.
var (
	StreamHeap = streamHeap
	StreamIDs  = streamIDs
	IDs        = ids
	SameIDs    = sameIDs
	ColumnSort = columnSort
)
