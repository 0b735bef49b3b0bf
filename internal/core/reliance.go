package core

import "vsfs/internal/meld"

// overflow holds the version reliances the solve adds on the fly, as
// one linked list per representative in flat arrays, newest first.
type overflow struct {
	head []int32 // 1 + index in to/next of r's newest edge; 0 = none
	to   []meld.Version
	next []int32
}

func (x *overflow) add(from, to meld.Version) {
	x.to = append(x.to, to)
	x.next = append(x.next, x.head[from])
	x.head[from] = int32(len(x.to))
}
