package core

import "tatooine/internal/obs"

// Process-wide executor metrics (internal/obs.Default): every instance
// in the process reports into the same families, labeled by source URI
// where a per-source breakdown matters.
var (
	probeSeconds = obs.Default.HistogramVec("tat_probe_seconds",
		"Source sub-query round-trip latency by source URI.",
		"source", obs.DurationBuckets())
	streamStallSeconds = obs.Default.Histogram("tat_stream_stall_seconds",
		"Time stream producers spent blocked on consumer backpressure.",
		obs.DurationBuckets())
	digestFetchTotal = obs.Default.Counter("tat_digest_fetch_total",
		"Digest builds/fetches (digest catalog misses).")
	digestHitTotal = obs.Default.Counter("tat_digest_hits_total",
		"Digest catalog hits.")
	spilledJoinsTotal = obs.Default.Counter("tat_spilled_joins_total",
		"Residual hash joins whose build side exceeded the join memory budget and spilled to disk.")
	spilledBytesTotal = obs.Default.Counter("tat_spilled_bytes_total",
		"Bytes written to spill files by budget-bounded hash joins.")
)

// SpillCounters reports the process-wide spill totals — joins whose
// build side exceeded the configured memory budget, and the bytes they
// wrote to disk — for surfaces (like the server's /stats) that mirror
// the /metrics families as JSON.
func SpillCounters() (joins, bytes int64) {
	return spilledJoinsTotal.Value(), spilledBytesTotal.Value()
}
