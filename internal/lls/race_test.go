//go:build race

package lls

// raceEnabled reports whether the race detector is compiled in. The race
// runtime drops a quarter of sync.Pool.Puts, so a pooled slab is randomly
// allocated afresh and allocation counts mean nothing there.
const raceEnabled = true
