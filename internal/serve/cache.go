package serve

import "container/list"

// lruCache is a small mutex-free LRU (callers hold their own lock): string
// keys, opaque values, size-capped with eviction from the cold end. The
// server guards each instance with the owning structure's mutex — the
// cache itself stays single-threaded state.
type lruCache struct {
	cap   int
	ll    *list.List // front = hottest
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value and marks it hot.
func (c *lruCache) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes a value, evicting the coldest entry beyond cap.
func (c *lruCache) put(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.items, cold.Value.(*lruEntry).key)
	}
}

// removeIf drops key's entry, but only while it still holds val: the caller is invalidating a singleflight entry it knows
// is unusable (its computation panicked, or its first requester cancelled),
// and must not evict the fresh entry a later request put there.
func (c *lruCache) removeIf(key string, val any) {
	el, ok := c.items[key]
	if !ok || el.Value.(*lruEntry).val != val {
		return
	}
	c.ll.Remove(el)
	delete(c.items, key)
}

func (c *lruCache) len() int { return c.ll.Len() }
