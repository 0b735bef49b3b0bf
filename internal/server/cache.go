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
// number of concurrent query readers. Because a Result never changes,
// its /analyze body never does either: an entry keeps the first
// rendering of that body, so later hits write stored bytes.
type resultCache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	m         map[string]*list.Element
	bodyBytes int // sum of len(body) over every entry
}

type cacheEntry struct {
	key  string
	res  *vsfs.Result
	body []byte // rendered /analyze body of res; nil until first rendered
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

// add caches res under key. Replacing an entry's result drops the body
// rendered from the old one.
func (c *resultCache) add(key string, res *vsfs.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bodyBytes -= len(e.body)
		e.res, e.body = res, nil
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		e := back.Value.(*cacheEntry)
		c.bodyBytes -= len(e.body)
		delete(c.m, e.key)
	}
}

// body returns the stored /analyze body for key, or nil if none has
// been rendered or key no longer holds res.
func (c *resultCache) body(key string, res *vsfs.Result) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		if e := el.Value.(*cacheEntry); e.res == res {
			return e.body
		}
	}
	return nil
}

// setBody stores body as the rendered /analyze body of res, if key
// still holds res and no body is stored yet. Two concurrent first
// renders of one Result give identical bytes, so keeping either is
// correct.
func (c *resultCache) setBody(key string, res *vsfs.Result, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		if e := el.Value.(*cacheEntry); e.res == res && e.body == nil {
			e.body = body
			c.bodyBytes += len(body)
		}
	}
}

// storedBodyBytes is the memory held by stored /analyze bodies.
func (c *resultCache) storedBodyBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bodyBytes
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
	c.bodyBytes = 0
}
