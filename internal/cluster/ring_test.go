package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestNewRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil, 0, 0); err == nil {
		t.Error("empty ring: want error")
	}
	if _, err := NewRing([]string{"a", "a"}, 0, 0); err == nil {
		t.Error("duplicate replica: want error")
	}
}

func TestPickIsDeterministicAndSticky(t *testing.T) {
	names := []string{"http://a", "http://b", "http://c"}
	r1, err := NewRing(names, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(names, 0, 0)
	for i := 0; i < 50; i++ {
		key := RouteKey("", "", fmt.Sprintf("prog-%d", i))
		p1 := r1.Pick(key)
		p2 := r2.Pick(key)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("key %d: rings disagree: %v vs %v", i, p1, p2)
		}
		if len(p1) != len(names) {
			t.Fatalf("key %d: Pick returned %d candidates, want %d", i, len(p1), len(names))
		}
		seen := map[string]bool{}
		for _, n := range p1 {
			if seen[n] {
				t.Fatalf("key %d: duplicate candidate %s", i, n)
			}
			seen[n] = true
		}
	}
}

func TestPickSpreadsKeys(t *testing.T) {
	names := []string{"http://a", "http://b", "http://c"}
	r, _ := NewRing(names, 0, 0)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[r.Pick(RouteKey("", "", fmt.Sprintf("prog-%d", i)))[0]]++
	}
	for _, n := range names {
		if counts[n] == 0 {
			t.Errorf("replica %s owns no keys out of 300: %v", n, counts)
		}
	}
}

func TestPickBoundedLoadSpillsHotReplica(t *testing.T) {
	names := []string{"http://a", "http://b", "http://c"}
	r, _ := NewRing(names, 0, 1.25)
	key := RouteKey("", "", "hot program")
	primary := r.Pick(key)[0]

	// Saturate the primary: with total inflight 4 on it and none
	// elsewhere, capacity = ceil(1.25·5/3) = 3, so the primary is over
	// capacity and must move behind the idle replicas.
	for i := 0; i < 4; i++ {
		r.Acquire(primary)
	}
	got := r.Pick(key)
	if got[0] == primary {
		t.Fatalf("saturated primary %s still first in %v", primary, got)
	}
	if got[len(got)-1] != primary {
		t.Errorf("saturated primary %s should be last resort in %v", primary, got)
	}
	for i := 0; i < 4; i++ {
		r.Release(primary)
	}
	if got := r.Pick(key)[0]; got != primary {
		t.Errorf("after release primary = %s, want %s", got, primary)
	}
}

func TestSetHealthyRoutesAroundAndRebalances(t *testing.T) {
	names := []string{"http://a", "http://b", "http://c"}
	r, _ := NewRing(names, 0, 0)
	key := RouteKey("", "", "some program")
	primary := r.Pick(key)[0]

	if !r.SetHealthy(primary, false) {
		t.Fatal("SetHealthy(false) reported no change")
	}
	if r.SetHealthy(primary, false) {
		t.Error("second SetHealthy(false) should be a no-op")
	}
	got := r.Pick(key)
	if len(got) != 2 {
		t.Fatalf("with one ejected, Pick = %v, want 2 candidates", got)
	}
	for _, n := range got {
		if n == primary {
			t.Fatalf("ejected replica %s still routed: %v", primary, got)
		}
	}
	if r.Rebalances() != 1 {
		t.Errorf("Rebalances = %d, want 1", r.Rebalances())
	}
	r.SetHealthy(primary, true)
	if got := r.Pick(key)[0]; got != primary {
		t.Errorf("after readmission primary = %s, want %s", got, primary)
	}
	if r.Rebalances() != 2 {
		t.Errorf("Rebalances = %d, want 2", r.Rebalances())
	}
}

func TestPickAllUnhealthyStillRoutes(t *testing.T) {
	names := []string{"http://a", "http://b"}
	r, _ := NewRing(names, 0, 0)
	r.SetHealthy("http://a", false)
	r.SetHealthy("http://b", false)
	got := r.Pick(RouteKey("", "", "x"))
	if len(got) != 2 {
		t.Fatalf("all-unhealthy Pick = %v, want the full membership", got)
	}
}

func TestRouteKeyMatchesCacheKeyShape(t *testing.T) {
	// Defaults fill in exactly like the replica's cache key.
	if RouteKey("", "", "src") != RouteKey("vsfs", "c", "src") {
		t.Error("defaulted key differs from explicit (vsfs, c) key")
	}
	if RouteKey("sfs", "", "src") == RouteKey("", "", "src") {
		t.Error("mode should enter the key")
	}
	if RouteKey("", "ir", "src") == RouteKey("", "", "src") {
		t.Error("lang should enter the key")
	}
}
