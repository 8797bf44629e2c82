package coverage

import (
	"math/rand"
	"testing"
)

// TestEngineShardPlanCoversEveryItem: planShards must partition [0, n)
// exactly — contiguous, in order, no gaps, no overlap — and never emit
// more shards than asked or than items.
func TestEngineShardPlanCoversEveryItem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		want := 1 + rng.Intn(40)
		shards := planShards(n, want)
		if n == 0 {
			if shards != nil {
				t.Fatalf("n=0 returned %v", shards)
			}
			continue
		}
		if len(shards) > want || len(shards) > n {
			t.Fatalf("n=%d want=%d: %d shards", n, want, len(shards))
		}
		next := 0
		for _, sh := range shards {
			if sh.lo != next || sh.hi <= sh.lo {
				t.Fatalf("n=%d want=%d: bad shard %+v after %d", n, want, sh, next)
			}
			next = sh.hi
		}
		if next != n {
			t.Fatalf("n=%d want=%d: shards end at %d", n, want, next)
		}
	}
}
