package slab

import "testing"

// TestCarve: carvings are consecutive, capped runs of the array; appending to
// one cannot reach the next; and a carving larger than what is left is a new
// array, leaving the rest to the next carving.
func TestCarve(t *testing.T) {
	arr := make([]int, 5)
	s := arr
	a, b := Carve(&s, 2), Carve(&s, 2)
	if &a[0] != &arr[0] || &b[0] != &arr[2] || cap(a) != 2 || cap(b) != 2 {
		t.Fatalf("carvings %p/%d and %p/%d, want runs of the array at 0 and 2", &a[0], cap(a), &b[0], cap(b))
	}
	a = append(a, 7)
	if b[0] != 0 {
		t.Fatal("appending to one carving wrote into the next")
	}
	if big := Carve(&s, 3); len(big) != 3 || &big[0] == &arr[4] {
		t.Fatal("a carving larger than what is left must be a new array")
	}
	if last := Carve(&s, 1); &last[0] != &arr[4] {
		t.Fatal("the array's last element was not carved after an oversized request")
	}
}
