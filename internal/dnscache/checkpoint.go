package dnscache

import "time"

// ItemState is one cache entry in serializable form: the question key, the
// stored response, and the absolute store/expiry instants on the simulated
// clock. TTL decay is not materialized — Get recomputes it from stored vs.
// now — so restoring the two timestamps restores the decay exactly.
type ItemState struct {
	Key     string
	Entry   Entry
	Stored  time.Time
	Expires time.Time
}

// CheckpointItems captures every live entry in LRU order, most recently
// used first. The order is part of the state: with a bounded capacity the
// next eviction victim depends on it.
func (c *Cache) CheckpointItems() []ItemState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ItemState, 0, len(c.items))
	for el := c.order.Front(); el != nil; el = el.Next() {
		it := el.Value.(*item)
		out = append(out, ItemState{Key: it.key, Entry: it.entry, Stored: it.stored, Expires: it.expires})
	}
	return out
}

// RestoreItems replaces the cache contents with the captured entries,
// preserving their MRU-first order (the order CheckpointItems emits).
// Entries are installed verbatim — no TTL clamping or capacity eviction is
// re-applied, since the captured state already reflects both.
func (c *Cache) RestoreItems(items []ItemState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[string]*item, len(items))
	c.order.Init()
	for _, st := range items {
		it := &item{key: st.Key, entry: st.Entry, stored: st.Stored, expires: st.Expires}
		it.lru = c.order.PushBack(it)
		c.items[st.Key] = it
	}
}
