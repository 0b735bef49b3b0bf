package graph

// Worklist is a FIFO queue of dense ids that holds each id at most once.
// The zero value is an empty worklist; its marks grow with the ids
// pushed.
type Worklist struct {
	queue []uint32
	mark  []bool // mark[v]: v is queued
	hw    int    // high-water mark of queued ids
}

// NewWorklist returns an empty worklist with marks for ids below n.
func NewWorklist(n int) Worklist { return Worklist{mark: make([]bool, n)} }

// Push queues v unless it is already queued.
func (w *Worklist) Push(v uint32) {
	if int(v) >= len(w.mark) {
		w.mark = append(w.mark, make([]bool, int(v)+1-len(w.mark))...)
	}
	if !w.mark[v] {
		w.mark[v] = true
		w.queue = append(w.queue, v)
		w.hw = max(w.hw, len(w.queue))
	}
}

// Pop dequeues the oldest id, reporting false when the worklist is
// empty.
func (w *Worklist) Pop() (uint32, bool) {
	if len(w.queue) == 0 {
		return 0, false
	}
	v := w.queue[0]
	w.queue = w.queue[1:]
	w.mark[v] = false
	return v, true
}

// HighWater returns the most ids ever queued at once.
func (w *Worklist) HighWater() int { return w.hw }
