package serve

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// Registry metrics of the result cache. /debug/metrics serves them live,
// and the CI smoke test asserts a repeated query lands as a hit.
var (
	metricCacheHits      = obs.NewCounter("serve.cache_hits")
	metricCacheMisses    = obs.NewCounter("serve.cache_misses")
	metricCacheEvictions = obs.NewCounter("serve.cache_evictions")
	metricCacheOversized = obs.NewCounter("serve.cache_oversized")
	metricCacheSize      = obs.NewGauge("serve.cache_size")
	metricCacheBytes     = obs.NewGauge("serve.cache_bytes")
)

// lruCache is the bounded result cache: canonical request key → rendered
// response. get promotes its key to most-recently-used; put evicts
// least-recently-used entries past EITHER bound — entry count or
// approximate byte size. The count bound alone is no memory bound at all
// (a handful of 2^20-row report manifests is gigabytes at 256 entries),
// so both are enforced. Entries are immutable once stored (handlers
// serve the cached bytes verbatim), so the cache hands out shared
// pointers without copying. An evicted entry is simply dropped: every
// complete solve reached the persistent store when it was rendered.
type lruCache struct {
	mu       sync.Mutex
	limit    int
	maxBytes int64
	bytes    int64
	m        map[string]*list.Element
	order    *list.List // front = least recently used, back = most recent
}

type lruEntry struct {
	key  string
	resp *response
}

// size is the entry's approximate memory footprint: the rendered body
// plus the key (struct overhead is noise next to multi-KB manifests).
func (e *lruEntry) size() int64 { return int64(len(e.key) + len(e.resp.body)) }

func newLRUCache(limit int, maxBytes int64) *lruCache {
	return &lruCache{
		limit:    limit,
		maxBytes: maxBytes,
		m:        make(map[string]*list.Element, limit),
		order:    list.New(),
	}
}

// get returns the cached response for key, promoting it to
// most-recently-used. The hit/miss counters are maintained here so every
// lookup path is counted identically.
func (c *lruCache) get(key string) (*response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		metricCacheMisses.Inc()
		return nil, false
	}
	c.order.MoveToBack(el)
	metricCacheHits.Inc()
	return el.Value.(*lruEntry).resp, true
}

// put stores resp under key, evicting least-recently-used entries while
// either bound is exceeded. Re-putting an existing key replaces its value
// and promotes it.
//
// An entry larger than the whole byte budget is not cached and the
// current residents stay put. (The naive path would admit it and then
// evict from the LRU front until the budget held — emptying the entire
// cache, oversized entry included, so one 2^20-row manifest would purge
// every hot entry and still not be cached.)
func (c *lruCache) put(key string, resp *response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(len(key)+len(resp.body)) > c.maxBytes {
		if el, ok := c.m[key]; ok {
			// A stale smaller resident under the same key would shadow
			// the stored copy on future gets; drop it.
			entry := el.Value.(*lruEntry)
			c.order.Remove(el)
			delete(c.m, key)
			c.bytes -= entry.size()
		}
		metricCacheOversized.Inc()
		metricCacheSize.Set(int64(c.order.Len()))
		metricCacheBytes.Set(c.bytes)
		return
	}
	if el, ok := c.m[key]; ok {
		entry := el.Value.(*lruEntry)
		c.bytes -= entry.size()
		entry.resp = resp
		c.bytes += entry.size()
		c.order.MoveToBack(el)
	} else {
		c.m[key] = c.order.PushBack(&lruEntry{key: key, resp: resp})
		c.bytes += int64(len(key) + len(resp.body))
	}
	for c.order.Len() > 0 && (c.order.Len() > c.limit || c.bytes > c.maxBytes) {
		oldest := c.order.Front()
		entry := oldest.Value.(*lruEntry)
		c.order.Remove(oldest)
		delete(c.m, entry.key)
		c.bytes -= entry.size()
		metricCacheEvictions.Inc()
	}
	metricCacheSize.Set(int64(c.order.Len()))
	metricCacheBytes.Set(c.bytes)
}

// len reports the number of cached responses.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// totalBytes reports the approximate cached byte size.
func (c *lruCache) totalBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
