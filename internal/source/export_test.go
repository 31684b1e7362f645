package source

import "time"

// SetCachedClock overrides a Cached decorator's time source for TTL
// tests (exported to the external test package via this in-package
// test file).
func SetCachedClock(c *Cached, now func() time.Time) { c.now = now }
