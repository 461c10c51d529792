// Package slab carves per-device state from arrays sized for a whole shard,
// so that building a shard's devices allocates per array, not per device.
package slab

// Carve returns the first n elements of *s, capped at n so that appending to
// them cannot reach the next carving, and advances *s past them. When fewer
// than n are left it returns a new array of n instead: a slab sized too small
// costs an allocation, never a shared element.
func Carve[T any](s *[]T, n int) []T {
	if n > len(*s) {
		return make([]T, n)
	}
	c := (*s)[:n:n]
	*s = (*s)[n:]
	return c
}
