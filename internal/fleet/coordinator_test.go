package fleet

import (
	"slices"
	"testing"
)

// TestPlanBatches pins the scatter plan: at most batchJobs jobs a batch, a
// batch count rounded up to a multiple of the live workers (capped at one job
// a batch), sizes within one of each other, and every job in exactly one
// batch.
func TestPlanBatches(t *testing.T) {
	for _, c := range []struct {
		n, batchJobs, live int
		want               []int // batch sizes
	}{
		{6, 4, 2, []int{3, 3}},
		{2, 4, 2, []int{1, 1}},
		{8, 4, 2, []int{4, 4}},
		{5, 4, 2, []int{3, 2}},
		{3, 4, 4, []int{1, 1, 1}},
		{9, 4, 0, []int{3, 3, 3}},
		{5, 1, 2, []int{1, 1, 1, 1, 1}},
		{7, 1, 0, []int{1, 1, 1, 1, 1, 1, 1}},
	} {
		remaining := make([]int, c.n)
		for k := range remaining {
			remaining[k] = 10 * k // job indexes, not positions
		}
		plan := planBatches(remaining, c.batchJobs, c.live)
		sizes := make([]int, len(plan))
		seen := map[int]int{}
		for i, b := range plan {
			sizes[i] = len(b)
			if len(b) > c.batchJobs {
				t.Errorf("%+v: batch %d holds %d jobs, over %d", c, i, len(b), c.batchJobs)
			}
			for _, idx := range b {
				seen[idx]++
			}
		}
		if !slices.Equal(sizes, c.want) {
			t.Errorf("(%d, %d, %d): batch sizes %v, want %v", c.n, c.batchJobs, c.live, sizes, c.want)
		}
		for _, idx := range remaining {
			if seen[idx] != 1 {
				t.Errorf("%+v: job %d is in %d batches, want 1", c, idx, seen[idx])
			}
		}
		if len(seen) != c.n {
			t.Errorf("%+v: the plan holds %d distinct jobs, want %d", c, len(seen), c.n)
		}
		if c.batchJobs == 1 {
			// One job a batch is the contiguous plan: batch k is job k.
			for k, b := range plan {
				if !slices.Equal(b, remaining[k:k+1]) {
					t.Errorf("%+v: batch %d = %v, want [%d]", c, k, b, remaining[k])
				}
			}
		}
	}
}
