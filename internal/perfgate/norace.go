//go:build !race

package perfgate

// Race reports that the race detector is compiled in.
const Race = false
