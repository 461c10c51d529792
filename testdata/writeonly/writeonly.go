// Package writeonly holds one field of each shape the field check in
// surface_test.go must tell apart.
package writeonly

// T's first three fields are written and never read.
type T struct {
	Assigned    int
	Incremented int
	Keyed       int
	Read        int
}

// K's field is read by comparing K values.
type K struct{ Compared int }

// Use writes T's fields, reads T.Read and compares two K values.
func Use(t *T) (int, bool) {
	t.Assigned = 1
	t.Incremented++
	*t = T{Keyed: 2}
	return t.Read, K{} == K{Compared: 1}
}
