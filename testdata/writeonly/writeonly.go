// Package writeonly holds one field of each shape the field check in
// surface_test.go must tell apart.
package writeonly

// T's first seven fields are written and never read: a high-water update
// reads its field only to write it again, and a store into an element or a
// self-append only writes the field. Done is read by a guard that does more
// than set it.
type T struct {
	Assigned    int
	Incremented int
	Keyed       int
	HighWater   int
	Peak        int
	Indexed     []int
	Appended    []int
	Done        bool
	Read        int
}

// K's field is read by comparing K values.
type K struct{ Compared int }

// Use writes T's fields, reads T.Read and T.Done, and compares two K values.
func Use(t *T, v int) (int, bool) {
	t.Assigned = 1
	t.Incremented++
	if v > t.HighWater {
		t.HighWater = v
	}
	t.Peak = max(t.Peak, v)
	t.Indexed[0] = v
	t.Indexed[1]++
	t.Appended = append(t.Appended, v)
	if !t.Done {
		t.Done = true
		v++
	}
	*t = T{Keyed: 2}
	return t.Read + v, K{} == K{Compared: 1}
}
