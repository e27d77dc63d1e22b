package jitcache

// FlightWaiters reports how many callers are parked on key's in-progress
// generation (0 when none is in flight).
func (c *Cache) FlightWaiters(key Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f.waiters
	}
	return 0
}
