package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"vsfs"
)

// cacheKey content-addresses an analysis request: the SHA-256 of
// (mode, input language, source text), NUL-separated so no two distinct
// requests collide by concatenation. Per-request options that do not
// affect the solved result (deadlines, query parameters) are
// deliberately excluded.
func cacheKey(mode vsfs.Mode, input vsfs.Input, source string) string {
	h := sha256.New()
	h.Write([]byte(mode.String()))
	h.Write([]byte{0})
	h.Write([]byte(input.String()))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// resultCache is a bounded LRU over solved programs keyed by content
// hash. Values are immutable *vsfs.Result instances, safe for any
// number of concurrent query readers.
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *vsfs.Result
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) (*vsfs.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).res, true
	}
	return nil, false
}

func (c *resultCache) add(key string, res *vsfs.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// purge empties the cache; used by tests and benchmarks to force
// cache-miss paths.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.m = make(map[string]*list.Element)
}
