package graph

// CSR is a graph over dense ids in compressed sparse row form: row v is
// Adj[Off[v]:Off[v+1]]. One pointer-free array holds every row, so a
// CSR costs two allocations however many rows it has, and copying the
// value shares them.
//
// A CSR is filled in two passes over the same edges: Count each edge's
// row, Alloc, Put each edge in the order its row should keep, then
// Done; Row is valid from then on.
type CSR struct {
	Off []uint32
	Adj []uint32
}

// NewCSR returns an n-row CSR with no edges, ready to Count.
func NewCSR(n int) CSR { return CSR{Off: make([]uint32, n+1)} }

// Row returns row v. The result must not be mutated; it is clipped, so
// appending to it copies it rather than overwrite row v+1.
func (c *CSR) Row(v uint32) []uint32 { return c.Adj[c.Off[v]:c.Off[v+1]:c.Off[v+1]] }

// NumRows returns the number of rows.
func (c *CSR) NumRows() int { return len(c.Off) - 1 }

// Bytes returns the storage the CSR holds.
func (c *CSR) Bytes() int64 { return 4 * int64(len(c.Off)+cap(c.Adj)) }

// Count records one edge out of row v, in the counting pass.
func (c *CSR) Count(v uint32) { c.Off[v+1]++ }

// Alloc ends the counting pass: Off[v] becomes row v's start and Adj is
// allocated to the counted size. Until the filling pass is over, Off[v]
// is row v's next free cell.
func (c *CSR) Alloc() {
	n := len(c.Off) - 1
	for v := range n {
		c.Off[v+1] += c.Off[v]
	}
	c.Adj = make([]uint32, c.Off[n])
}

// Put appends to to row v, in the filling pass. Each row must get
// exactly the edges counted for it.
func (c *CSR) Put(v, to uint32) {
	c.Adj[c.Off[v]] = to
	c.Off[v]++
}

// Done ends the filling pass. Put has moved every Off[v] to row v's
// end, which is row v+1's start, so shifting Off by one restores it.
func (c *CSR) Done() {
	n := len(c.Off) - 1
	copy(c.Off[1:], c.Off[:n])
	c.Off[0] = 0
}

// BuildCSR builds an n-row CSR over targets below m from the edges that
// each passes to emit. each runs twice, once to count the rows and once
// to fill them, so no edge list is held; it must emit the same edges
// both times. Each row keeps the first occurrence of every target, in
// emission order.
func BuildCSR(n, m int, each func(emit func(row, to uint32))) CSR {
	c := NewCSR(n)
	each(func(row, _ uint32) { c.Count(row) })
	c.Alloc()
	each(c.Put)
	c.Done()
	// Deduplicate each row in place: stamp[t] = v+1 once row v kept t.
	stamp := make([]uint32, m)
	w := uint32(0)
	for v := range n {
		lo, hi := c.Off[v], c.Off[v+1]
		c.Off[v] = w
		for _, t := range c.Adj[lo:hi] {
			if stamp[t] != uint32(v)+1 {
				stamp[t] = uint32(v) + 1
				c.Adj[w] = t
				w++
			}
		}
	}
	c.Off[n] = w
	c.Adj = c.Adj[:w]
	return c
}
