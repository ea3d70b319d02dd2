package serve

import "container/list"

// cachedResult is a completed run memoized by resultKey.
type cachedResult struct {
	result map[string]string
	stats  *JobStats
}

// lruStore is a string-keyed cache bounded by least-recently-used
// eviction, so a long-lived service fed millions of distinct keys by
// untrusted tenants cannot grow without bound. get promotes; put
// inserts (or refreshes) and evicts the least-recently-used entries
// past the cap. Not goroutine-safe; the service mutex guards every
// instance. The service holds two, both sized by Config.ResultCacheCap:
//
//   - results, the content-addressed result cache: completed runs keyed
//     by fingerprint × args × heartbeat (resultKey). It answers a
//     duplicate submitted after the first run finished; a duplicate
//     submitted while that run is still queued or running executes
//     itself.
//   - admissions, the admission-verdict cache keyed by admitKey, each
//     entry carrying its lowered program. An evicted program is simply
//     re-analyzed on its next submission; the pipeline is deterministic,
//     so the verdict and quote come out identical.
type lruStore[V any] struct {
	cap       int
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	evictions int64
}

type storeEntry[V any] struct {
	key string
	val V
}

func newLRUStore[V any](capacity int) *lruStore[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruStore[V]{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

func (rs *lruStore[V]) len() int { return len(rs.entries) }

// get returns the value cached under key and marks it recently used;
// ok is false on a miss.
func (rs *lruStore[V]) get(key string) (val V, ok bool) {
	el, ok := rs.entries[key]
	if !ok {
		return val, false
	}
	rs.order.MoveToFront(el)
	return el.Value.(*storeEntry[V]).val, true
}

// put inserts (or refreshes) key and evicts from the cold end past
// the cap.
func (rs *lruStore[V]) put(key string, val V) {
	if el, ok := rs.entries[key]; ok {
		el.Value.(*storeEntry[V]).val = val
		rs.order.MoveToFront(el)
		return
	}
	rs.entries[key] = rs.order.PushFront(&storeEntry[V]{key: key, val: val})
	for len(rs.entries) > rs.cap {
		cold := rs.order.Back()
		if cold == nil {
			break
		}
		rs.order.Remove(cold)
		delete(rs.entries, cold.Value.(*storeEntry[V]).key)
		rs.evictions++
	}
}
