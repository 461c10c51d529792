package flowtable

// New creates a table over the given VFID space with the §3.8 geometry, set
// up by Init with an index of its own.
func New(numVFIDs int) *Table {
	t := new(Table)
	t.Init(numVFIDs, new(Index))
	return t
}
