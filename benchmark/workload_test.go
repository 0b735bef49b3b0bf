package main

import (
	"crypto/sha256"
	"testing"

	"vsfs/internal/workload"
)

// requestStream hashes everything the benchmark sends for seed: every
// CLI workload's programs in request order and the first serve requests.
func requestStream(t *testing.T, seed int64) [32]byte {
	t.Helper()
	h := sha256.New()
	for _, s := range specs {
		for _, name := range s.programs {
			p, err := generate(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(p.src))
		}
	}
	pool, err := servePool(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range serveStream()[:200] {
		b, err := analyzeBody(pool[rank])
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestRequestStreamIsSeeded(t *testing.T) {
	a, b, c := requestStream(t, 1), requestStream(t, 1), requestStream(t, 2)
	if a != b {
		t.Error("seed 1 gave two different request streams")
	}
	if a == c {
		t.Error("seeds 1 and 2 gave the same request stream")
	}
}

func TestSeedOneIsTableII(t *testing.T) {
	for _, name := range []string{"lynx", "du"} {
		p, err := generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := workload.ProfileByName(name).Build().String(); p.src != want {
			t.Errorf("seed 1 %s is not the Table II program", name)
		}
	}
}

func TestServeStreamIsSkewed(t *testing.T) {
	counts := make([]int, servePoolSize)
	for _, rank := range serveStream() {
		counts[rank]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[servePoolSize-1] {
		t.Errorf("rank counts %v are not Zipf-skewed towards rank 0", counts)
	}
}
