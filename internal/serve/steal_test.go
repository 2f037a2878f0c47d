package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mapper"
)

// TestStealRegistryRaces registers shards and steals them from separate
// goroutines in every interleaving: whichever arrives first, each steal is
// consumed by its shard and none is left remembered.
func TestStealRegistryRaces(t *testing.T) {
	sr := newStealRegistry()
	const n = 48
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sid := fmt.Sprintf("s-%d", i)
		wg.Add(2)
		go func() {
			defer wg.Done()
			sr.add(sid, mapper.NewShardControl(mapper.ShardSpec{WalkedBefore: int64(i)}))
		}()
		go func() {
			defer wg.Done()
			sr.steal(sid)
		}()
	}
	wg.Wait()
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if len(sr.byID) != n {
		t.Errorf("%d shards registered, want %d", len(sr.byID), n)
	}
	if len(sr.early) != 0 {
		t.Errorf("%d steals left unconsumed: %v", len(sr.early), sr.early)
	}
}

// TestStealRegistryBounded: steals for sids that never register age out
// oldest first, so the remembered set stays at maxEarlySteals.
func TestStealRegistryBounded(t *testing.T) {
	sr := newStealRegistry()
	for i := 0; i < 3*maxEarlySteals; i++ {
		if sr.steal(fmt.Sprintf("gone-%d", i)) {
			t.Fatalf("steal %d reached a shard in an empty registry", i)
		}
	}
	if len(sr.early) != maxEarlySteals || len(sr.earlyQ) != maxEarlySteals {
		t.Fatalf("remembered %d (queue %d), want %d", len(sr.early), len(sr.earlyQ), maxEarlySteals)
	}
	if _, ok := sr.early[fmt.Sprintf("gone-%d", 3*maxEarlySteals-1)]; !ok {
		t.Error("newest steal was evicted")
	}
	if _, ok := sr.early["gone-0"]; ok {
		t.Error("oldest steal survived eviction")
	}
}
