package bitset

import "sync/atomic"

// WordBytes is the in-memory size of one element of a Sparse set: a
// 64-bit word plus its 32-bit base (padded). The guard layer multiplies
// word counts by this to express budgets in bytes.
const WordBytes = 16

// allocatedWords counts, process-wide, the net growth in Sparse
// elements: every insertion of a new element (Set, the growing paths of
// UnionWith and Copy) adds to it. It is monotone — shrinking operations
// do not subtract — making it a cheap cumulative-allocation clock the
// guard layer reads twice (arm, check) to bound a run's points-to
// storage growth. Accounting is global, so concurrent solves observe
// each other's allocations: another solve's set growth counts against
// this run's budget, although each solve has a budget of its own.
var allocatedWords atomic.Int64

// AllocatedWords returns the cumulative element-allocation count. The
// absolute value is meaningless; only differences are.
func AllocatedWords() int64 { return allocatedWords.Load() }

// trackAlloc records the net growth of a set by n elements.
func trackAlloc(n int) {
	if n > 0 {
		allocatedWords.Add(int64(n))
	}
}
