package flstore

import "time"

// ReadRetryConfig exposes a client's read-retry settings to the external
// test package.
func ReadRetryConfig(c *Client) (int, time.Duration) { return c.readRetries, c.retryBackoff }
