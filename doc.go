// Package tatooine is a reproduction of "Mixed-instance querying: a
// lightweight integration architecture for data journalism" (Bonaque
// et al., VLDB 2016): a mediator evaluating Conjunctive Mixed Queries
// over a mixed instance — a custom RDF graph plus heterogeneous data
// sources (full-text document stores, relational databases, RDF
// endpoints) — with keyword-based query generation over source
// digests and PMI tag-cloud analytics.
//
// The implementation lives under internal/ (one package per
// subsystem), the runnable demonstrations under examples/ and the CLI
// under cmd/. Performance is measured by bench/, a nested module with
// four closed-loop workloads — serve_hot, serve_exec, federated_stream
// and durable_mutate — that report end-to-end and per-layer metrics
// and check every reply against an oracle (bench/README.md). The
// per-experiment benchmarks in bench_test.go (E1–E12) are plain,
// unrecorded go test benchmarks.
//
// # Serving queries
//
// Beyond the one-shot CLI, "tatooine serve" runs the mediator as a
// long-running HTTP service (internal/server): one shared
// core.Instance answers POST /cmq concurrently, with GET /stats and
// GET /healthz alongside. Two cache layers keep the serving hot path
// off the network:
//
//   - a whole-query LRU result cache keyed on the parsed query's
//     canonical form (core.CMQ.CanonicalKey — surface-syntax variants
//     share an entry, semantically distinct queries never do), fronted
//     by a single-flight guard so identical concurrent queries execute
//     once (-result-cache entries; negative disables caching and
//     coalescing);
//   - a per-source sub-query cache (source.Cached) memoizing
//     Execute(sub, params) by (URI, language, text, params), so
//     repeated bind-join probes — notably through federation.Client —
//     hit memory (-probe-cache entries; 0 = default 1024, negative
//     disables; -probe-ttl expires entries after a duration so a
//     long-running mediator stops serving arbitrarily stale remote
//     rows).
//
// bench/'s serve_hot workload measures the cached HTTP path (every
// request a result-cache hit; server.overhead_ms_per_query is its
// breakdown) and serve_exec the cold one (both caches off, every
// request plans, probes and joins).
//
// # Mutation and epoch-based invalidation
//
// The paper's instances are dynamic: journalists keep loading new
// tweets, INSEE tables and discovered endpoints into I = (G, D)
// mid-session. core.Instance therefore carries a monotonically
// increasing epoch, bumped by every mutation through its API —
// AddTriples / RemoveTriples on G, AddSource / DropSource on D, and
// the force-expiry entry points Invalidate / InvalidateSource. The
// caches derived from the instance are invalidated by these calls, so
// the very next query after a mutation can never be answered from
// pre-mutation state:
//
//   - the server's result cache and single-flight map key on
//     (epoch, CanonicalKey) and lazily flush the superseded
//     generation — an in-flight leader that started before a mutation
//     finishes under the old epoch's key, invisible to post-mutation
//     requests;
//   - per-source probe caches (source.Cached) drop with their source
//     on DropSource, and expose Invalidate() (flushing memoized
//     results AND cost estimates) for sources mutated underneath the
//     mediator; Registry.InvalidateCaches reaches every interposed
//     cache, including the memoized wrappers of dynamically
//     discovered sources;
//   - the digest catalog is not keyed by the epoch: only AddSource,
//     DropSource, Invalidate and InvalidateSource reset it, since G
//     is never digested for planning (see "Digest-driven planning"
//     below).
//
// Over HTTP ("tatooine serve"): POST /graph inserts triples (JSON
// {"triples": "<turtle>"} or raw Turtle body), DELETE /graph removes
// them, POST /sources dials and registers a federation endpoint,
// DELETE /sources/{uri} (path-escaped, or ?uri=) drops one, and
// POST /admin/invalidate force-expires probe caches and the digest
// catalog (optionally scoped to one source's probe cache). GET /stats reports the instance epoch plus
// the mutation, generation-flush and probe-invalidation counters.
//
// # Incremental delta-saturation (internal/reason)
//
// Graph atoms of a saturated instance answer over G∞ — the paper's
// answer semantics (§2.1). Recomputing G∞ from scratch whenever the
// epoch moves (the PR 3 design) makes a single-triple insert cost a
// whole-graph saturation on the next query, so core.Instance now feeds
// its mutation delta straight into reason.Engine, an incremental RDFS
// reasoner that owns the materialized G∞:
//
//   - inserts run the semi-naive rules seeded only from the delta
//     (rdf.DeltaConsequences joins each new triple against the
//     saturated graph in both premise positions of every rule; fresh
//     conclusions re-enter the frontier). New schema triples trigger
//     the targeted re-closure of exactly the affected hierarchy
//     slices.
//   - deletes run delete-and-rederive (DRed): trace the over-deletion
//     cone of consequences reachable from the deleted triples
//     (explicit base facts survive), resurrect cone members that keep
//     a well-founded derivation — checked READ-ONLY against the
//     hypothetical post-delete graph (rdf.DerivableExcept), so
//     concurrent queries never observe a still-entailed triple
//     missing — and only then remove the rest. Deleting a schema
//     triple, or a cone exceeding a configurable fraction of the
//     graph (reason.Config.MaxDeleteFraction), falls back to a full
//     recompute.
//
// GET /stats carries a "saturation" block (mode, derived count,
// deltaApplies / fullRecomputes, last apply duration). bench/'s
// durable_mutate workload interleaves writes and reads and reports
// reason.apply_insert_us, reason.derived_per_write and
// reason.full_recomputes (which must stay 0 after warm-up). Before the
// full-recompute ablation was removed, a one-shot benchmark put the
// delta path's mutate-then-query loop ~390x ahead of it on a
// 1000-politician graph. A property-style test (internal/reason) keeps
// the maintained G∞ triple-identical to rdf.Saturate-from-scratch
// under random mixed insert/delete sequences.
//
// # Batched bind-join pushdown
//
// The paper's bind-join strategy ships one native sub-query per outer
// binding — for a remote source that is one HTTP round trip per
// binding. Sources may implement the optional source.BatchProber
// capability (ExecuteBatch: one sub-query, many parameter tuples, one
// native round trip); the executor then chunks a bind join's distinct
// outer tuples into batches of ExecOptions.ProbeBatch (default 64,
// "tatooine serve -probe-batch") and ships each chunk as ONE
// sub-query, turning O(bindings) round trips into O(bindings/batch).
//
//   - source.RelSource pushes batches down as SQL: each `col = ?`
//     probe predicate is rewritten into `col IN (v1, ..., vk)` per
//     batch and the single result is split back per tuple — exactly,
//     including multi-parameter cross products; shapes whose meaning
//     would change (LIMIT, DISTINCT, aggregation, '?' outside a
//     top-level equality) report source.ErrBatchUnsupported and fall
//     back to per-tuple probes.
//   - source.RDFSource and source.DocSource evaluate batches
//     VALUES-style: parse once, evaluate per tuple in-process.
//   - federation.Client ships the whole batch as one POST /batch
//     request; the remote endpoint pushes it natively into its store
//     when it can and loops server-side otherwise — either way the
//     per-binding network round trips collapse into one. Every
//     federation.Handler serves the route, so a non-OK /batch reply
//     is an error like any other.
//   - source.Cached answers cached tuples from the probe cache and
//     forwards only the misses as a smaller batch, filling the cache
//     per tuple from the batch result.
//
// ExecStats.BatchProbes (and the /stats batchProbes counter) reports
// how many batched dispatches ran; POST /cmq with {"explain": true}
// returns the plan plus each atom's batched-vs-per-probe decision
// without executing. bench/'s federated_stream workload, whose sources
// sit behind a 1 ms delay, reports the collapse as
// core.batch_probes_per_query and federation.rtts_per_query;
// BenchmarkBatchedBindJoin isolates it (per-tuple vs batches of 64)
// against a latency-injected remote.
//
// # Pipelined operator-DAG execution
//
// The planner (internal/core/plan.go) compiles a CMQ into a dependency
// DAG rather than barrier-synchronized waves: each atom becomes a
// PlanStep whose Deps are the producers of its InVars (dynamic atoms
// depend on everything scheduled before them, because their URI set is
// resolved from the full intermediate result). Join order is greedy
// and selectivity-aware — atoms connected to what is already scheduled
// beat disconnected ones (avoiding cross products), then smaller
// estimated row counts win. Estimates come from the two-dimensional
// source.Estimator capability, Estimate(q, numParams) = (rows, cost):
// rows drives ordering (it is what intermediates grow with), cost
// records total effort (scan work + rows, plus
// federation.RemoteCostOverhead for remote sources). Estimator is
// optional: a source without it estimates as unknown (-1, -1), which
// ranks last.
//
// One executor (internal/core/exec_stream.go) runs every query. Each
// DAG node starts at once in its own goroutine and waits only on its
// OWN dependencies: independent subtrees overlap with downstream bind
// joins instead of idling at wave boundaries, so on latency-skewed
// plans the wall clock drops from sum-of-waves to the longest
// dependency chain. Plan.Explain and {"explain": true} render the DAG:
//
//	plan for qSIA(?t, ?id) :- ... (2 nodes, depth 2)
//	  node 0: atom 0 [G] scan rows=1 cost=3 wave 0 deps=(-) out=(x,id)
//	  node 1: atom 1 [<solr://tweets>] bind-join(id) rows=2 cost=4 wave 1 deps=(0) out=(t,id)
//
// and ExecStats.Nodes reports per-node actual row counts next to the
// estimates, so misestimates are visible per query. ExecOptions.Parallel
// only bounds bind-join fan-out (false is MaxFanout = 1); the E6
// NaiveOrder ablation plans atoms in declaration order and runs each
// only after the previous one finished. The DAG once had two
// siblings, both since removed. One-shot benchmarks had it beating a
// barrier-synchronized wave scheduler 1.64x. Streaming cut
// time-to-first-row 4.4x against a materialize-every-node path, which
// bench/ now tracks as ttfr_p50_ms and core.ttfr_ms on
// federated_stream. A property test checks 2,000 randomized CMQs —
// dynamic atoms, DISTINCT, ORDER BY and LIMIT included — against a
// nested-loop reference evaluator (internal/core/oracle_test.go).
//
// Execution is cancellable end to end: the POST /cmq request context
// flows through Instance.ExecuteContext into every DAG node, probe
// fan-out and federation.Client HTTP round trip
// (source.ContextExecutor / source.ContextBatchProber), so a
// disconnected client or an expired deadline stops scheduled nodes,
// refuses further probes and aborts in-flight remote requests instead
// of leaking goroutines. The mediator's single-flight guard counts
// interested requests per flight and cancels the shared execution only
// when the LAST one disconnects — a leader's disconnect never poisons
// coalesced followers. ExecOptions.MaxFanout defaults to a
// GOMAXPROCS-derived bound (DefaultMaxFanout, clamped to [8, 64]);
// "tatooine serve -fanout" overrides it.
//
// # Tuple-level streaming execution
//
// Results stream wire-to-wire instead of materializing between
// operators. Every DAG node publishes rows progressively as its probe
// batches land (internal/core/stream.go): a downstream bind join
// consumes its dependency through a cursor and launches its first
// probe batch as soon as the first upstream rows exist, and the most
// expensive terminal node feeds the root join through a bounded channel
// of row batches — so the first result rows reach the client after
// roughly one probe round trip, while the rest of the fan-out is still
// in flight. Instance.ExecuteStream returns the incremental result
// (StreamingResult.NextBatch / Close); ExecuteContext drains the same
// stream into a QueryResult. Blocking operators (ORDER BY, aggregation)
// still consume their full input before the first row; everything else
// — projection, DISTINCT, LIMIT — passes rows through. A dynamic atom
// waits for its complete outer input, since the set of URIs to contact
// comes from all of it (§2.2).
//
// Early termination flows upstream: a LIMIT that reaches its bound (a
// LIMIT without DISTINCT/ORDER BY/aggregates is additionally pushed
// below the projection) closes the stream, which cancels the
// per-query context and with it every in-flight probe and
// federation.Client round trip — LIMIT 1 over a large federated join
// pays for a handful of probes, not all of them. Abandoning a
// StreamingResult mid-drain (Close) cancels the same way; no executor
// goroutine outlives the result.
//
// POST /cmq streams over HTTP when the client asks for it — Accept:
// application/x-ndjson, or {"stream": true} in the JSON body. The
// response is NDJSON (server.StreamRecord), one JSON object per line:
// a {"cols": [...]} header, one {"row": [...]} record per result row
// (flushed batch by batch as the executor produces them), and a
// {"stats": {...}, "cached": bool} trailer with the final ExecStats. A
// failure after rows are on the wire — the 200 status is long since
// sent — terminates the stream with an {"error": "..."} record
// instead of the trailer; rows already delivered stand. Client
// disconnects cancel the pipeline through the request context, and
// GET /stats exposes streamed / inFlightStreams counters (the gauge
// returning to zero is the no-leak check). Streamed responses bypass
// the single-flight guard and are not cached; cache hits produced by
// the JSON path replay in the same NDJSON framing.
//
// # Digest-driven planning and bloom semi-join pruning
//
// The per-source digests (internal/digest) that power keyword-based
// query generation double as planner statistics and a semi-join
// reducer. Each core.Instance keeps one digest catalog, the only cache
// of source digests: the first lookup after a reset fetches or builds a
// source's digest through digest.ForSource (one /digest round trip for
// a federation.Client, which builds it fresh on every request; one scan
// for a local store), and concurrent lookups wait for that build.
// Planning, pruning and keyword.BuildCatalog all read it
// (Instance.SourceDigest). The calls that announce a changed source
// reset it: AddSource, DropSource, Invalidate and InvalidateSource.
// Graph writes do not, because the catalog never holds G. GET /stats
// carries a "digest" block (digestFetches / digestHits /
// prunedProbes).
//
// Planning: digest.RefineEstimate sharpens the source's flat
// selectivity guess per atom — equality conjuncts contribute
// count/distinct from the target's value set (exactly zero when
// membership proves a literal absent), numeric ranges integrate the
// histogram, and the tightest conjunct wins — so DAG ordering ranks
// atoms by actual expected cardinality and ExecStats.Nodes shows
// est-vs-actual drift tightening. Graph atoms are exempt (digesting G
// on every graph write would repay the full-saturation cost the
// incremental reasoner removed).
//
// Pruning: before a bind-join chunk dispatches, digest.ParamMatcher
// maps each parameter position to the digest nodes its value must
// appear in (`col = ?` equality targets for SQL, constant-predicate
// object / rdf:type subject positions for BGPs, non-analyzed
// keyword-equality fields for full-text) and skips outer bindings
// whose values the digest proves absent. Membership "no" is definitive
// because digest construction and probing normalize through the same
// function; false positives only cost a wasted probe. Shapes where an
// empty match still yields rows (aggregates, OPTIONAL patterns,
// analyzed CONTAINS fields) refuse pruning entirely, as do NULL
// bindings and digests decoded from a foreign wire version (every
// bloom and digest carries a version field; unknown versions decode as
// pass-through filters that never exclude, so mixed-version
// federations degrade to no pruning, never to lost rows). Surviving
// bindings ship their per-position bloom filters inside POST /batch
// ("prune"), letting the remote endpoint skip excluded tuples
// server-side and answer them as empty results, position-aligned.
// Fully pruned chunks never reach
// the wire. ExecStats.PrunedProbes counts the
// skipped bindings, and {"explain": true} annotates each bind-join
// atom with its pruning decision — the plan line carries the refined
// row estimate and the atom entry says why pruning does or does not
// apply:
//
//	node 1: atom 1 [<sql://remote>] bind-join(k) rows=1 cost=48 wave 1 deps=(0) out=(k,v)
//
//	"pruning": "digest covers the parameter positions; bindings the
//	            digest excludes are skipped before probing"
//
// A randomized property test over partially disjoint sources checks
// pruned answers against a reference evaluator. bench/'s
// federated_stream workload, whose politicians mostly never tweeted,
// reports core.pruned_probe_ratio. Before the no-digest ablation was
// removed, a one-shot benchmark of a low-match-rate federated join
// (256 outer bindings, 16 matching) shipped 16 probes instead of 256
// and ran ~7x faster with pruning.
//
// # Persistent storage engine
//
// The mediator's own state — the custom graph G, its materialized
// saturation G∞, the mutation epoch and registered-source metadata —
// can live on disk instead of in process memory. The stack is built
// from scratch, bottom-up:
//
//   - internal/pager: a page file (4 KiB pages) behind a clock
//     (second-chance) cache, fronted by a redo-only write-ahead log.
//     Commit appends the dirty pages plus a CRC-guarded commit frame
//     and fsyncs once; crash recovery replays committed frames and
//     discards a torn tail; Checkpoint folds the WAL back into the
//     main file. Path "" runs the same pager purely in memory.
//   - internal/btree: order-N B-trees over pager pages — insert,
//     delete, point lookup and ordered range cursors.
//   - internal/store: named keyspaces (one B-tree each) over one
//     shared pager, so a single Commit covers every keyspace touched
//     by a mutation — store.Store is the engine boundary the layers
//     above program against.
//
// rdf.Graph and relstore.Table are backend-split: the default
// in-memory backends (nested triple maps; row slices + hash indexes)
// are bit-for-bit the pre-engine behavior, while rdf.OpenGraph and
// relstore.OpenDatabase mount the same APIs on store keyspaces — SPO /
// POS / OSP triple permutations as 12-byte composite keys, dictionary
// write-through, binary-encoded rows with persisted secondary indexes
// and primary keys. Equivalence tests drive both backends through
// identical randomized operation sequences and compare every answer.
//
// core.Open(dir) opens a persistent Instance: each mutation commits
// graph pages, saturation pages, epoch and catalog in ONE WAL
// transaction, so a crash between commits rolls the whole instance
// back to the last committed mutation — epoch, G and G∞ can never
// diverge (a SIGKILL crash-recovery test pins exactly this). Reopening
// is a warm boot: the stored G∞ is adopted as-is (reason.Adopt, zero
// recomputes) and incremental maintenance resumes where it left off.
// Instance.Store() exposes the backing store so embedding applications
// co-locate their relational state in the same transactions.
//
// "tatooine serve -data-dir <dir>" runs the mediator persistently: a
// fresh directory is seeded from the generated dataset, a restart
// warm-boots from the stored state, SIGINT/SIGTERM drains in-flight
// requests and checkpoints the WAL on the way down, and GET /stats
// grows a "store" block (pages, cacheHits / cacheMisses, walBytes,
// commits, checkpoints). Without the flag everything runs in memory,
// byte-identical to the pre-engine behavior. bench/'s durable_mutate
// workload runs on such a store and reports reopen_s, space_amp, the
// pager.* and btree.* layer costs, and post_write_query_p50_ms. A
// one-shot benchmark once put a warm reopen of a 1000-politician
// instance at ~1 ms against ~61 ms for load + saturate. See
// examples/persistent for the end-to-end walkthrough.
//
// # Observability
//
// internal/obs is a dependency-free observability layer threaded
// through the whole stack: per-query span trees, a Prometheus-text
// metrics registry, and a flight recorder.
//
// Tracing: Instance.ExecuteContext / ExecuteStream open an "execute"
// span (joining the HTTP request's span when the server layer started
// one) with children for planning, digest fetches, every DAG node,
// every probe and probe batch, and every federation round trip. The
// trace crosses processes: federation.Client stamps outgoing calls
// with X-Tat-Trace-Id / X-Tat-Span-Id, a sourced endpoint (or another
// mediator) joins the trace, and its response reports the remote root
// span plus server-side nanoseconds (X-Tat-Server-Ns), so the client
// span splits observed latency into remote compute vs wire time. POST
// /cmq with {"trace": true} returns the span tree — as a "trace"
// block of the JSON reply, or on the NDJSON trailer record — and
// examples/federated renders one.
//
// Metrics: GET /metrics exposes two registries in Prometheus text
// exposition format — the server-scoped one (tat_requests_total,
// result-cache hit/miss, tat_query_seconds and tat_query_ttfr_seconds
// histograms, in-flight gauges) and the process-wide obs.Default
// (per-source probe RTT, stream backpressure stalls,
// probe/digest cache hits, pager cache hits/misses, WAL commits and
// fsync latency, federation RTT per remote). GET /stats reads the
// same registry, so the two surfaces cannot disagree, and reports
// uptimeSeconds.
//
// Flight recorder: the server keeps the last N completed queries
// (-trace-ring, default 64) with their traces on GET /debug/queries;
// queries at or over -slow-query (default 250ms) are flagged there
// and logged through log/slog. -log-requests adds one structured line
// per request; -pprof mounts net/http/pprof under /debug/pprof/.
// "make verify" runs scripts/obs_vet.sh, which scrapes a live
// mediator's /metrics and rejects printf-style logging outside cmd/.
//
// # Memory model
//
// A persistent mediator runs in bounded memory: every layer that used
// to grow with the instance now works against an explicit budget, so
// an instance several times larger than RAM serves queries instead of
// thrashing or dying.
//
// Page cache: the pager keeps a hard-capped clock cache
// (-page-cache-mb, default 16 MiB at 4 KiB pages). Pages past the cap
// are evicted — clean pages dropped, dirty pages retained until the
// next commit flushes them — and the tat_pager_resident_pages gauge
// reports occupancy, so a flat gauge under a growing store is the
// observable signature of bounded operation. Freed pages go on a
// persistent free list and are reused before the file grows;
// store.Vacuum (auto-triggered when the dead-page ratio passes
// store.DefaultAutoVacuumRatio) compacts reclaimable space, and
// dropped saturation generations return their pages one generation
// deferred so in-flight readers never observe a freed page.
//
// Paged dictionary: the RDF term dictionary no longer materializes
// every term at open. Terms load lazily from prefix-compressed store
// pages on first touch and age out with the page cache, so warm-boot
// cost and steady-state footprint are independent of how many terms
// the instance has accumulated. Relational scans decode only the
// columns a query references (value.DecodeRowProject): pruned columns
// surface as nulls in their original positions and their bytes are
// never copied out of the page.
//
// Spill joins: residual hash joins — the joins the mediator itself
// runs over sub-query results — take a build-side budget
// (-join-mem-budget MiB; ExecOptions.JoinMemBudget bytes; 0 keeps the
// unbounded behavior). A build side that outgrows the budget
// transitions mid-build into a Grace-style partitioned join: both
// inputs hash-partition to a temporary store (NoSync, tiny cache,
// removed on Close), then partitions join one at a time, so peak
// memory tracks the largest partition rather than the whole build
// side. The spilled path is row-multiset-identical to the in-memory
// join (property-tested across all four executor modes), cross
// products never spill (no key to partition on), and the cost is
// visible everywhere: ExecStats.SpilledJoins/SpilledBytes per query,
// tat_spilled_joins_total / tat_spilled_bytes_total process-wide, a
// "memory" block on GET /stats, and a per-atom "spill" verdict from
// explain when a budget is set.
//
// BenchmarkBoundedMemory pins the contract — an on-disk instance
// several times the page-cache budget serving point lookups and a
// deliberately overflowing join while the resident-page gauge stays
// under the cap and live-heap growth within 1.5x the budget — and
// "make verify" runs it once (boundedsmoke). bench/ reports each
// workload's process peak as peak_rss_mb. See examples/boundedmemory
// for the end-to-end walkthrough.
package tatooine
