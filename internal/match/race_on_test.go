//go:build race

package match

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so allocation counts of pooled code mean nothing.
const raceEnabled = true
