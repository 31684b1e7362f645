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
// # Evaluating graph atoms (internal/rdf)
//
// rdf.EvaluateBound answers a graph atom's BGP over term IDs. Each
// variable owns a slot holding its bound TermID, bound and unbound in
// place as the search backtracks; constants and bind-join parameters
// are looked up in the dictionary once per call. Patterns join greedily,
// fewest matches under the current bindings first, and a zero count
// ends the branch. A FILTER decodes only its own variable, and only the
// head columns of an emitted row are decoded back to terms. A
// differential test and FuzzParseBGP hold it to the map-binding
// evaluator it replaced (internal/rdf/reference_test.go).
//
// # Incremental delta-saturation (internal/reason)
//
// Graph atoms of a saturated instance answer over G∞ — the paper's
// answer semantics (§2.1). Recomputing G∞ from scratch whenever the
// epoch moves (the PR 3 design) makes a single-triple insert cost a
// whole-graph saturation on the next query, so core.Instance now feeds
// its mutation delta straight into reason.Engine, an incremental RDFS
// reasoner that owns the materialized G∞.
//
// The six RDFS rules (rdfs2, 3, 5, 7, 9, 11) are stated once, as a
// table in internal/rdf: each rule is two premise patterns and a
// conclusion over variables and the five vocabulary terms. A forward
// evaluator lists every conclusion one triple takes part in; a
// backward one checks whether a rule application still concludes a
// triple. Both run over term IDs.
//
//   - inserts are rdf.Propagate: the semi-naive loop over the forward
//     evaluator, seeded only from the delta (fresh conclusions
//     re-enter the frontier). The same loop seeded with the whole
//     graph is rdf.SaturateInPlace, the batch fixpoint, so schema and
//     data inserts take one path.
//   - deletes run delete-and-rederive (DRed): trace the over-deletion
//     cone of consequences reachable from the deleted triples
//     (rdf.DeltaConsequences, the forward evaluator; explicit base
//     facts survive), resurrect cone members that keep a well-founded
//     derivation — checked READ-ONLY against the hypothetical
//     post-delete graph (rdf.DerivableExcept, the backward one), so
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
// under random mixed insert/delete sequences, and
// TestRulesMatchReference (internal/rdf) holds the table to the
// hand-written fixpoint it replaced on random meta-schema graphs.
//
// # Batched bind-join pushdown
//
// The paper's bind-join strategy ships one native sub-query per outer
// binding — for a remote source that is one HTTP round trip per
// binding. Sources may implement the optional source.BatchProber
// capability (ExecuteBatch: one sub-query, many parameter tuples, one
// native round trip); the executor then chunks a bind join's distinct
// outer tuples into batches of core.DefaultProbeBatch (64, not
// configurable) and ships each chunk as ONE sub-query, turning
// O(bindings) round trips into O(bindings/batch). Every batch is
// answered: there is no refusal to fall back from. The executor ships
// every sub-query through one dispatch (a scan, a probe or a batch),
// and source.ExecuteBatchWith hands a batch to a BatchProber whole and
// runs it tuple by tuple, checking the context before each, on any
// other source.
//
//   - source.RelSource pushes batches down as SQL: each `col = ?`
//     probe predicate is rewritten into `col IN (v1, ..., vk)` per
//     batch and the single result is split back per tuple — exactly,
//     including multi-parameter cross products; shapes whose meaning
//     would change (LIMIT, DISTINCT, '?' outside a top-level
//     equality) run tuple by tuple inside ExecuteBatch; text that is
//     not one SELECT fails the batch once, with the parse error.
//   - source.RDFSource and source.DocSource evaluate batches
//     VALUES-style: parse once, evaluate per tuple in-process. Their
//     Execute is a batch of one.
//   - federation.Handler serves GET /meta, POST /batch, POST /estimate
//     and GET /digest. POST /batch is the one data route: a scan or a
//     single probe travels as a batch of one, and the endpoint answers
//     through source.ExecuteBatchWith under the request's context, so
//     a caller that hangs up stops a server-side loop. federation.Client
//     ships a whole batch as one request; a non-OK /batch reply is an
//     error like any other.
//   - The /batch body, both ways, is row-codec frames (see below) in
//     one media type, application/x-tatooine-frames; any other is
//     refused with 415. The request is a frame of strings (language,
//     text, then each InVar), a uvarint tuple count and a frame per
//     parameter tuple. A 200 reply is a uvarint result count, then per
//     result a frame of column names, a uvarint row count and the row
//     frames. Bytes after the last frame are an error on both sides;
//     any other status carries a JSON {"error": ...} body.
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
// estimated row counts win. Estimates are (rows, cost) pairs: rows
// drives ordering (it is what intermediates grow with), cost records
// total effort and breaks ties. They come from the source's catalog
// digest first (digest.Analyze, see "Digest-driven planning"
// below), which costs no call to the source. Only where the digest
// cannot answer (graph atoms, XPath, joins, no digest) does
// the planner fall back to the optional source.Estimator capability,
// Estimate(q, numParams) = (rows, cost), whose cost is scan work + rows,
// plus federation.RemoteCostOverhead for remote sources. A source
// without either estimates as unknown (-1, -1), which ranks last.
// A graph atom's estimate is its smallest pattern count: O(1) on the
// in-memory graph, which answers every pattern shape from its index
// sizes and a per-predicate triple count, and a prefix scan on a
// store-backed one.
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
// only bounds bind-join fan-out (false keeps one probe in flight). The
// DAG once had two siblings, both since removed. One-shot benchmarks
// had it beating a barrier-synchronized wave scheduler 1.64x.
// Streaming cut time-to-first-row 4.4x against a materialize-every-node
// path, which bench/ now tracks as ttfr_p50_ms and core.ttfr_ms on
// federated_stream.
//
// The planner fixes each node's column layout once: a prefix (the
// designator of a dynamic atom, then a bind join's IN variables),
// then the OUT variables. A variable never becomes a second column; an
// OUT that repeats a variable already in the layout (another OUT, an
// IN, the designator) is an equality check against that column, so a
// dynamic atom that returns its own designator keeps only the rows
// naming the source it was sent to. Before, such a node carried the
// designator twice and a hash join keyed only one copy, which let
// through rows of other sources. One function applies the layout to
// every scan, probe and dynamic-source result. Every join chain (the
// root join, a bind join's outer over several dependencies, a dynamic
// atom's materialized outer) follows one rule: the next build side is
// the first one sharing a column with what is joined so far, and a
// cross product happens only when nothing connects. The plan resolves
// every column to a position: each chain's join keys and appended
// columns, a bind join's IN positions, a dynamic atom's designator
// position, and the finish (projection, or group keys and aggregate
// inputs, and the sort column). Operators carry no column names, so a
// query the planner accepts cannot fail at run time for want of a
// column. A plain head variable outside GROUP BY is refused when the
// query is validated, before any source is called. An aggregated head
// without GROUP BY answers an empty join with one row, as SQL does:
// COUNT and COUNT DISTINCT 0, SUM, AVG, MIN and MAX NULL. A grouped
// aggregate over an empty join has no rows. A property test checks
// 2,000 randomized CMQs against a nested-loop reference evaluator
// (internal/core/oracle_test.go). They include dynamic atoms (directory
// atoms among them, some returning their own designator), bind joins
// on two IN variables from different producers, repeated OUT
// variables, heads that are a random subset of the variables in random
// order, aggregated heads (GROUP BY a random subset or none; COUNT,
// COUNT DISTINCT, MIN, MAX), DISTINCT, ORDER BY and LIMIT. The first
// four seeds also run with a one-byte join memory budget, so every
// keyed join spills to disk.
//
// Execution is cancellable end to end: the POST /cmq request context
// flows through Instance.ExecuteContext into every DAG node, probe
// fan-out and federation.Client HTTP round trip
// (source.ContextExecutor / source.ContextBatchProber), and on into
// the remote endpoint's /batch, so a disconnected client or an
// expired deadline stops scheduled nodes, refuses further probes,
// aborts in-flight remote requests and stops a remote's tuple loop
// instead of leaking goroutines. The mediator's single-flight guard counts
// interested requests per flight and cancels the shared execution only
// when the LAST one disconnects — a leader's disconnect never poisons
// coalesced followers. With ExecOptions.Parallel a bind join keeps up
// to DefaultMaxFanout probes in flight: a GOMAXPROCS-derived bound,
// clamped to [8, 64].
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
// the JSON path replay in the same NDJSON framing. The header and row
// records are always written with their field, so a zero-column result
// (an ASK-style query over ground triples) reads {"cols": []} and then
// {"row": []} per row.
//
// Rows cross a process boundary in one binary form, the row codec
// (value.AppendRow, value.DecodeRow): spill files and /batch, both
// ways. It carries every value exactly — NaN, −0, invalid UTF-8, times
// outside years 0000–9999 — where JSON text could not. A frame is a
// uvarint length then one row (value.AppendFrame, value.ReadFrame);
// lengths and counts are uvarints of at most 64 MiB, and each value,
// length and count has one encoding. ReadFrame refuses a longer frame
// before it allocates, grows its buffer only as bytes arrive, and
// reports a cut stream as an error wrapping io.ErrUnexpectedEOF.
// TestWireFidelity (internal/federation) checks every kind across
// /batch against the same batch in-process; FuzzBatchHandler and
// FuzzBatchReply drive arbitrary bytes into both ends.
//
// Every value a client reads — /cmq rows and NDJSON rows — has one
// JSON shape, {"k": kind, "v": payload}: the payload is the value's
// text (RFC 3339 with nanoseconds for a time) and "v" is left out when
// it is empty (null and the empty string). One writer produces it:
// value.AppendJSON, its row form value.AppendRowJSON, and
// value.JSONWriter, which appends a reply's rows straight into a
// pooled buffer and writes it out in 16 KiB chunks. Its bytes are
// encoding/json's with HTML escaping (<, >, &, U+2028, U+2029, control
// characters, invalid UTF-8 as U+FFFD), which FuzzAppendJSON checks
// against the reflective encoder it replaced; Value.MarshalJSON is a
// wrapper over it. The shape is write-only: Value.UnmarshalJSON
// refuses every input, so a Go client reads rows as raw JSON (as
// bench/ and the server tests do) rather than as values.
//
// # Values and rows on the query path
//
// A value.Value is 32 bytes with one pointer word: a string, an int64,
// an int32 and the kind. A string is the string; an int, a float (its
// IEEE-754 bits) and a bool (0 or 1) live in the int64; a time is UTC
// Unix seconds in the int64 plus nanoseconds in the int32, so no zone
// is kept and Time() rebuilds a UTC time.Time. Equal and Compare on
// times compare (seconds, nanoseconds). Key, the row codec and the wire
// JSON are byte for byte what the earlier 72-byte layout (a field per
// kind and a time.Time) gave; TestValueEncodingGolden pins them, with
// Equal and Compare, over every kind and edge (NaN, ±Inf, −0, the
// int64 extremes, years −1 to 1e6 in non-UTC zones). value.AppendKey is
// the one key writer (Key wraps it) and AppendKeyFrame frames a key as
// Row.Key does, so the aggregate's group and COUNT DISTINCT keys, the
// hash join's build and probe keys and DISTINCT's row keys are built
// in one reused buffer per operator and looked up in place: a string is
// made only for a new group, distinct value or join key. Rows are cut
// from shared arrays, never reused: a shipped sub-query's layout rows
// from one array, and hash-join and projection rows from arrays that
// double up to 64 rows. A full-text RETURN path is split once at parse
// time and projected with doc.Document.First, which builds no list.
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
// Planning: digest.Analyze answers both of a bind join's questions in
// one pass: it parses an atom's sub-query once and walks its
// conjuncts once, returning the row estimate and the per-parameter
// pruning nodes (a digest.ParamMatcher) together. The planner runs it
// once per static non-graph atom and records the matcher on the
// PlanStep, where the executor and explain read it; only a dynamic
// atom analyzes per discovered source at run time. The estimate is
// the planner's first estimator — equality conjuncts contribute
// count/distinct from the target's value set (exactly zero when
// membership proves a literal absent), numeric ranges integrate the
// histogram, and the tightest conjunct wins — so DAG ordering ranks
// atoms by expected cardinality and ExecStats.Nodes shows
// est-vs-actual drift. A digest-answered estimate has cost = rows,
// and the source is not consulted: no /estimate round trip to a
// remote, no parse-and-count in a local store. Shapes the digest
// refuses (XPath, joins) ask the source's
// Estimator. Graph atoms are exempt (digesting G on every graph write
// would repay the full-saturation cost the incremental reasoner
// removed). Two known costs: a digest keeps no per-value counts, so a
// fixed-value equality gets count/distinct even where a local
// full-text index counts the value exactly (a rare value on skewed
// data is overestimated); and digest-answered costs carry no scan
// work or RemoteCostOverhead, so equal-row ties no longer favour
// local sources and Plan.StreamSink can pick a local atom over a
// remote one.
//
// Pruning: before a bind-join chunk dispatches, the plan step's
// digest.ParamMatcher maps each parameter position to the digest
// nodes its value must appear in (`col = ?` equality targets for SQL,
// constant-predicate object / rdf:type subject positions for BGPs,
// non-analyzed keyword-equality fields for full-text) and skips outer
// bindings whose values the digest proves absent. Membership "no" is
// definitive because digest construction and probing normalize
// through the same function; false positives only cost a wasted
// probe. Shapes where an empty match still yields rows (OPTIONAL
// patterns) or equality is not the match (analyzed CONTAINS fields)
// refuse pruning entirely, as do NULL bindings. Every bloom and digest
// carries a version field, and one from another wire version is
// refused at decode: the catalog records no digest for that source, so
// mixed-version federations degrade to no estimate and no pruning,
// never to lost rows. At the current version the decoder also refuses
// what the estimators and filters could not walk safely: a bloom
// whose k lies outside [1, 32] (k bounds each membership test's loop)
// or whose m is 0, a negative value count, and a histogram unless
// len(bounds) = len(counts)+1 ≥ 2, its bounds are finite and
// non-decreasing, counts and n are ≥ 0 and min ≤ max. A refused /digest fails its fetch and is
// negative-cached, so planning falls back to the source's estimate.
// FuzzDigestWire (make fuzzsmoke) drives arbitrary bytes through the
// decoder and digest.Analyze, and FuzzAnalyzeSubQuery drives
// arbitrary sub-query texts through it. Pruning happens on the
// mediator only: surviving bindings ship in POST /batch as plain
// parameter tuples, and the endpoint runs every tuple it receives (no
// filter travels; the mediator's matcher already tested every covered
// position against the exact set or Bloom filter a shipped filter
// would have repeated). Fully pruned chunks never reach the wire.
// ExecStats.PrunedProbes counts the skipped bindings, and {"explain":
// true} annotates each bind-join atom with its pruning decision — the
// plan line carries the digest's row estimate (cost = rows) and the
// atom entry says why pruning does or does not apply:
//
//	node 1: atom 1 [<sql://remote>] bind-join(k) rows=1 cost=1 wave 1 deps=(0) out=(k,v)
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
// saturation G∞ and the mutation epoch — can live on disk instead of
// in process memory. The stack is built from scratch, bottom-up:
//
//   - internal/pager: a page file (4 KiB pages) behind a clock
//     (second-chance) cache, fronted by a redo-only write-ahead log.
//     Commit appends the dirty pages plus a CRC-guarded commit frame
//     and fsyncs once; crash recovery replays committed frames and
//     discards a torn tail; Checkpoint folds the WAL back into the
//     main file. Every pager is file-backed; one whose cache is
//     unbounded (CacheSize -1) keeps every page resident.
//   - internal/btree: order-N B-trees over pager pages — insert,
//     delete, point lookup and ordered range cursors.
//   - internal/store: named keyspaces (one B-tree each) over one
//     shared pager, so a single Commit covers every keyspace touched
//     by a mutation. Its only user is the persistent core.Instance,
//     and it holds one copy of each piece of mediator state: G
//     (keyspace prefix "g"), G∞ ("sat", sharing G's dictionary) and
//     the catalog (format, epoch, and whether the stored G∞ is
//     committed).
//
// Only rdf.Graph is backend-split, because G and G∞ are the mediator's
// own state: the default in-memory backend (nested triple maps) is
// bit-for-bit the pre-engine behavior, while rdf.OpenGraph mounts the
// same API on store keyspaces — SPO / POS / OSP triple permutations as
// 12-byte composite keys, with dictionary write-through. Equivalence
// tests drive both backends through identical randomized operation
// sequences and compare every answer. Sources are never persisted:
// relstore.Table is an in-memory row slice plus a primary-key set,
// standing in for an autonomous database the mediator queries where it
// lives. Tables are built only through the Go API,
// Database.CreateTable and Table.Insert (datagen, the examples and the
// tests); SQL text only reads, so no route that carries a sub-query
// (POST /cmq, POST /batch) can write a source. Its SQL
// (internal/sqlparse) is one select-project-join SELECT with WHERE,
// DISTINCT, ORDER BY, LIMIT and OFFSET; any other statement is refused
// at offset 0, and GROUP BY, HAVING and COUNT/SUM/AVG/MIN/MAX are
// refused at parse time, because the mediator aggregates the joined
// result in the CMQ head for every kind of source, as in
// QUERY q(?k, COUNT(?v) AS ?n) ... GROUP BY ?k. ORDER BY sorts the
// source rows before projection, and DISTINCT then keeps the first copy
// of each output row, so the order holds; under DISTINCT every ORDER BY
// key must be a selected column (as in PostgreSQL), and one that is not
// is refused with an error naming it. A SELECT reads the stored rows in
// place: they never change once Insert has typed them.
//
// core.Open(dir) opens a persistent Instance: each mutation commits
// graph pages, saturation pages, epoch and catalog in ONE WAL
// transaction, so a crash between commits rolls the whole instance
// back to the last committed mutation — epoch, G and G∞ can never
// diverge (a SIGKILL crash-recovery test pins exactly this). Reopening
// is a warm boot: the stored G∞ is adopted as-is (reason.Adopt, zero
// recomputes) and incremental maintenance resumes where it left off.
// G∞ is maintained in place: a full rebuild (schema delete, oversized
// DRed cone, Invalidate) recomputes the saturation in memory and diffs
// it into the stored graph, adding missing triples before removing
// stale ones, so readers see the same monotone transition as a DRed
// apply. A store written by an older version (a catalog without a
// "format" key) is refused with an error naming the file; delete the
// data directory to start over.
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
// persistent free list and are reused before the file grows; the
// store's vacuum pass (run from Commit when live payload falls below
// 10% of the in-use page bytes) compacts reclaimable space.
//
// Paged dictionary: the RDF term dictionary no longer materializes
// every term at open. Terms load lazily from prefix-compressed store
// pages on first touch and age out with the page cache, so warm-boot
// cost and steady-state footprint are independent of how many terms
// the instance has accumulated.
//
// Spill joins: residual hash joins — the joins the mediator itself
// runs over sub-query results — take a build-side budget
// (-join-mem-budget MiB; ExecOptions.JoinMemBudget bytes; 0 keeps the
// unbounded behavior). A build side that outgrows the budget
// transitions mid-build into a Grace-style partitioned join: both
// inputs hash-partition to plain append-only files in a temporary
// tat-spill-* directory (one file per side and partition, each a run
// of row-codec frames, written once and read back once;
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
//
// # Reachability
//
// Every declaration in internal/ is reachable from a program, so code
// that only tests call does not accumulate. The root package's
// TestInternalDeclarationsAreReachable (deadcode_test.go, run by
// go test ./...) type-checks every non-test package of the module and
// of the nested bench/ module with go/parser and go/types. Its roots
// are the main functions of cmd/, examples/ and bench/, every init
// function and every var _ = … declaration; from them it follows the
// identifiers each reached declaration uses. A method also counts as
// reached with its receiver type when it has the name and signature of
// a method of some interface, of the module or of the standard library
// (String, Error, MarshalJSON, ServeHTTP and the like), because a call
// through an interface names no concrete method. The test fails on
// any function, method, type, variable or constant in internal/ that
// is not reached. To keep one, add it to deadAllowed in deadcode_test.go,
// keyed "pkg.Name" or "pkg.Type.Method", with the reason it stays as
// the value; the test also fails on an entry that is reached or names
// nothing. A wrapper that only gives tests a handle on live code goes
// in its package's _test.go instead. Each example's example_test.go
// calls its run function and checks the output, so the programs that
// serve as roots run under go test too.
package tatooine
