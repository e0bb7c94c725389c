//go:build race

package hier

// raceEnabled reports that this binary was built with -race, whose
// instrumentation makes the 10k-node builds too slow for the race tier.
const raceEnabled = true
