// Package server turns a mixed instance into a long-running HTTP
// mediator service: one shared core.Instance answers concurrent mixed
// queries, with an LRU result cache keyed on (instance epoch, the
// parsed query's canonical form core.CMQ.CanonicalKey), a
// single-flight guard so identical concurrent queries execute once,
// and a per-source sub-query cache (source.Cached) underneath so
// repeated bind-join probes hit memory instead of the network.
//
// The instance is mutable over HTTP: POST /graph inserts triples,
// POST /sources registers a remote endpoint, DELETE /sources drops
// one. Every mutation bumps the instance epoch; because result-cache
// and single-flight keys carry the epoch, the very next POST /cmq can
// never be answered from a pre-mutation entry (the stale generation is
// flushed lazily). POST /admin/invalidate force-expires the per-source
// probe caches for sources that mutated underneath the mediator.
//
// Queries are cancellable: the request context flows through
// core.Instance.ExecuteContext into every probe, so a disconnected
// client or an expired deadline aborts in-flight remote sub-queries.
// Coalesced executions are cancelled only when the LAST interested
// request goes away (the flight counts its waiters) — a leader's
// disconnect never poisons its followers.
//
// Routes:
//
//	POST   /cmq               execute a CMQ (JSON {"query": "..."} or raw
//	                          text body; {"explain": true} plans without
//	                          executing and returns the plan plus per-atom
//	                          batch/per-probe decisions)
//	POST   /graph             insert triples into G (JSON {"triples":
//	                          "<turtle>"} or raw Turtle body)
//	DELETE /graph             remove triples from G (same body forms)
//	POST   /sources           register a remote endpoint (JSON {"url": ...})
//	DELETE /sources/{uri}     drop a registered source (URI path-escaped;
//	                          DELETE /sources?uri=... is equivalent)
//	POST   /admin/invalidate  flush probe caches + rotate the result cache
//	                          (JSON {"source": "uri"} scopes to one source)
//	GET    /stats             server counters + cache occupancy + epoch
//	GET    /metrics           Prometheus text exposition (server + process
//	                          registries)
//	GET    /debug/queries     flight recorder: last N completed query
//	                          traces + slow-query flags
//	GET    /debug/pprof/      net/http/pprof, when Options.EnablePprof
//	GET    /healthz           liveness probe
//
// Observability: every request joins (or starts) an obs trace, POST
// /cmq can return the query's span tree ({"trace": true} in the body),
// and completed queries land in a bounded flight recorder with the
// slow ones logged through Options.Logger.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/federation"
	"tatooine/internal/lru"
	"tatooine/internal/obs"
	"tatooine/internal/rdf"
	"tatooine/internal/source"
	"tatooine/internal/store"
	"tatooine/internal/value"
)

// Options tune the mediator service.
type Options struct {
	// ResultCacheSize bounds the whole-query result cache (entries).
	// 0 uses DefaultResultCacheSize; negative disables result caching
	// AND the single-flight coalescing of identical concurrent queries
	// (coalescing is result sharing across requests too).
	ResultCacheSize int
	// ProbeCacheSize bounds each source's sub-query cache (entries).
	// 0 uses source.DefaultCacheSize; negative disables probe caching.
	ProbeCacheSize int
	// ProbeTTL expires probe-cache entries this long after they were
	// filled (0 = never), so a long-running mediator stops serving
	// arbitrarily stale rows from mutable remote sources.
	ProbeTTL time.Duration
	// Exec carries the execution options every query runs with.
	Exec core.ExecOptions

	// SlowQuery is the slow-query log threshold: completed queries at
	// or over it are flagged in GET /debug/queries and logged through
	// Logger. 0 uses DefaultSlowQuery; negative disables the log.
	SlowQuery time.Duration
	// TraceRing bounds the flight recorder — the last N completed query
	// traces served on GET /debug/queries. 0 uses DefaultTraceRing;
	// negative disables the recorder.
	TraceRing int
	// Logger receives slow-query warnings and (with LogRequests)
	// structured request logs; nil uses slog.Default().
	Logger *slog.Logger
	// LogRequests turns on one structured log line per request.
	LogRequests bool
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool
}

// DefaultResultCacheSize bounds the result cache when Options leaves
// ResultCacheSize at zero.
const DefaultResultCacheSize = 256

// DefaultSlowQuery is the slow-query threshold when Options leaves
// SlowQuery at zero.
const DefaultSlowQuery = 250 * time.Millisecond

// DefaultTraceRing is the flight-recorder capacity when Options leaves
// TraceRing at zero.
const DefaultTraceRing = 64

// Stats are the server-level counters surfaced on GET /stats. Since
// the obs layer landed they are read back from the server's metric
// registry — /stats and /metrics can never disagree.
type Stats struct {
	UptimeSeconds      float64 `json:"uptimeSeconds"`      // seconds since the server was built
	Requests           int64   `json:"requests"`           // POST /cmq requests handled
	CacheHits          int64   `json:"cacheHits"`          // answered from the result cache
	CacheMisses        int64   `json:"cacheMisses"`        // executed (or joined an in-flight execution)
	Coalesced          int64   `json:"coalesced"`          // waited on an identical in-flight query
	Errors             int64   `json:"errors"`             // parse or execution failures
	SubQueries         int64   `json:"subQueries"`         // native sub-queries across all executions
	BatchProbes        int64   `json:"batchProbes"`        // batched bind-join dispatches across all executions
	Streamed           int64   `json:"streamed"`           // POST /cmq requests answered as NDJSON streams
	InFlightStreams    int64   `json:"inFlightStreams"`    // NDJSON streams currently open (a leak shows here)
	CacheEntries       int     `json:"cacheEntries"`       // current result-cache occupancy
	Epoch              uint64  `json:"epoch"`              // instance mutation epoch
	Mutations          int64   `json:"mutations"`          // mutation requests applied over HTTP
	Invalidations      int64   `json:"invalidations"`      // stale result-cache generations flushed
	ProbeInvalidations int64   `json:"probeInvalidations"` // probe-cache result entries force-dropped

	// Saturation reports how the instance maintains G∞: the mode
	// ("off" or "delta"), the materialized implicit-triple count, the
	// deltaApplies / fullRecomputes counters and the last apply
	// duration (ns).
	Saturation core.SaturationStats `json:"saturation"`

	// Store reports the persistent backing store's counters (pages,
	// cache hits/misses, WAL bytes, commits, checkpoints) when the
	// server runs on a persistent instance; absent in memory mode.
	Store *store.Stats `json:"store,omitempty"`

	// Digest reports digest-driven planning and semi-join pruning: how
	// many per-source digests were built or fetched, how many planner /
	// pruner lookups the catalog answered from memory, and how many
	// bind-join probes digest filters pruned before any round trip.
	Digest DigestBlock `json:"digest"`

	// Memory reports the bounded-memory configuration and its effect:
	// the per-join build-side budget queries execute under (bytes;
	// 0 = unbounded) and the process-wide spill totals. The page-cache
	// cap and resident-page count appear under Store.
	Memory MemoryBlock `json:"memory"`
}

// MemoryBlock is the /stats bounded-memory section.
type MemoryBlock struct {
	JoinMemBudget int64 `json:"joinMemBudget"` // bytes; 0 disables spilling
	SpilledJoins  int64 `json:"spilledJoins"`  // joins that exceeded the budget
	SpilledBytes  int64 `json:"spilledBytes"`  // bytes written to spill files
}

// DigestBlock is the /stats digest section.
type DigestBlock struct {
	core.DigestStats
	PrunedProbes int64 `json:"prunedProbes"`
}

// QueryRequest is the JSON body of POST /cmq. With Explain set the
// query is planned but not executed: the response carries the rendered
// plan plus the per-atom batched-vs-per-probe decisions instead of
// rows. With Stream set (equivalently: an Accept header asking for
// application/x-ndjson) the response streams as NDJSON records — see
// StreamRecord — with rows flushed as the executor produces them.
type QueryRequest struct {
	Query   string `json:"query"`
	Explain bool   `json:"explain,omitempty"`
	Stream  bool   `json:"stream,omitempty"`
	// Trace asks for the execution's span tree in the response: the
	// "trace" block of the JSON reply, or the NDJSON trailer's trace
	// field. Cache hits executed nothing and carry no trace.
	Trace bool `json:"trace,omitempty"`
}

// QueryResponse is the JSON reply of POST /cmq.
type QueryResponse struct {
	Cols    []string          `json:"cols"`
	Rows    []value.Row       `json:"rows"`
	Stats   core.ExecStats    `json:"stats"`
	Cached  bool              `json:"cached"`
	Explain *core.ExplainInfo `json:"explain,omitempty"`
	Trace   *obs.SpanData     `json:"trace,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// GraphRequest is the JSON body of POST /graph and DELETE /graph; a
// non-JSON body is treated as the Turtle/N-Triples text directly.
type GraphRequest struct {
	Triples string `json:"triples"`
}

// GraphResponse reports an applied graph mutation.
type GraphResponse struct {
	Changed int    `json:"changed"` // triples actually inserted / removed
	Size    int    `json:"size"`    // G's triple count after the mutation
	Epoch   uint64 `json:"epoch"`
	Error   string `json:"error,omitempty"`
}

// SourceRequest is the JSON body of POST /sources: the base URL of a
// federation endpoint to dial and register.
type SourceRequest struct {
	URL string `json:"url"`
}

// SourceResponse reports a source registration or drop.
type SourceResponse struct {
	URI   string `json:"uri,omitempty"`
	Epoch uint64 `json:"epoch"`
	Error string `json:"error,omitempty"`
}

// InvalidateRequest is the optional JSON body of POST /admin/invalidate;
// Source scopes the flush to one source's probe cache.
type InvalidateRequest struct {
	Source string `json:"source,omitempty"`
}

// InvalidateResponse reports what an invalidation dropped. The shape
// is pinned: a successful invalidation ALWAYS carries epoch and
// probeEntries — probeEntries is an explicit 0 when nothing was cached
// (the epoch still bumps; the caller asked for a hard reset and the
// bump is what guarantees it) — while an error response carries only
// error, never a meaningless zero epoch.
type InvalidateResponse struct {
	Epoch        uint64 `json:"epoch,omitempty"`
	ProbeEntries *int   `json:"probeEntries,omitempty"` // probe-cache result entries dropped
	Error        string `json:"error,omitempty"`
}

// Server is the mediator query service around one shared Instance.
type Server struct {
	in    *core.Instance
	opts  Options
	start time.Time

	// reg is the server's own metric registry: counters scoped to THIS
	// server (two Servers over one instance must not share request
	// counts), rendered on /metrics alongside the process-wide
	// obs.Default (pager, probe caches, federation RTT).
	reg      *obs.Registry
	recorder *obs.Recorder // nil when Options.TraceRing < 0
	logger   *slog.Logger

	mu       sync.Mutex
	cache    *lru.Cache[*core.QueryResult] // nil when result caching is disabled
	inflight map[string]*flightCall
	gen      uint64 // instance epoch the current cache generation belongs to

	requests, hits, misses, coalesced, errors       *obs.Counter
	subQueries, batchProbes, prunedProbes, streamed *obs.Counter
	mutations, invalidations, probeInvalidations    *obs.Counter
	inFlightStreams, inFlightQueries                *obs.Gauge
	querySeconds, ttfrSeconds                       *obs.Histogram
}

// flightCall is one in-progress execution identical queries wait on.
// waiters counts the requests still interested in the result (the
// leader included); when the last one's context ends, cancel aborts
// the leader's execution — one surviving waiter keeps the in-flight
// probes alive, so a leader's disconnect never poisons its followers.
// waiters is guarded by the server mutex: the drop to zero and the
// flight's removal from the inflight map happen atomically, so a
// request can never join a flight that is already being cancelled.
type flightCall struct {
	done    chan struct{}
	res     *core.QueryResult
	err     error
	waiters int // guarded by Server.mu
	cancel  context.CancelFunc
}

// watchFlight registers ctx against the flight under key: when it
// ends, the flight's waiter count drops, and the last drop removes the
// flight from the inflight map (so later identical requests lead a
// fresh execution instead of inheriting a cancelled one) and cancels
// the execution. The returned stop function releases the registration.
func (s *Server) watchFlight(ctx context.Context, key string, call *flightCall) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		s.mu.Lock()
		call.waiters--
		last := call.waiters == 0
		if last && s.inflight[key] == call {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
		if last {
			call.cancel()
		}
	})
}

// New builds a Server over the instance. Unless probe caching is
// disabled, every source in the instance's registry (and every source
// its fallback resolver discovers later) is interposed with a
// source.Cached decorator sized by opts.ProbeCacheSize. The
// interposition is skipped when the registry is already decorated
// (e.g. a second Server over the same instance), so wrappers never
// stack.
func New(in *core.Instance, opts Options) *Server {
	if opts.ResultCacheSize == 0 {
		opts.ResultCacheSize = DefaultResultCacheSize
	}
	if opts.ProbeCacheSize >= 0 && !in.Sources().Interposed() {
		n, ttl := opts.ProbeCacheSize, opts.ProbeTTL
		in.Sources().Interpose(func(s source.DataSource) source.DataSource {
			return source.NewCached(s, n).WithTTL(ttl)
		})
	}
	s := &Server{
		in:       in,
		opts:     opts,
		start:    time.Now(),
		reg:      obs.NewRegistry(),
		logger:   opts.Logger,
		inflight: make(map[string]*flightCall),
		gen:      in.Epoch(),
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	if opts.ResultCacheSize > 0 {
		s.cache = lru.New[*core.QueryResult](opts.ResultCacheSize)
	}
	slow := opts.SlowQuery
	switch {
	case slow == 0:
		slow = DefaultSlowQuery
	case slow < 0:
		slow = 0 // recorder treats 0 as "no slow-query log"
	}
	ring := opts.TraceRing
	if ring == 0 {
		ring = DefaultTraceRing
	}
	if ring > 0 {
		s.recorder = obs.NewRecorder(ring, slow, s.logger)
	}
	s.requests = s.reg.Counter("tat_requests_total",
		"POST /cmq requests handled.")
	s.hits = s.reg.Counter("tat_result_cache_hits_total",
		"Queries answered from the result cache.")
	s.misses = s.reg.Counter("tat_result_cache_misses_total",
		"Queries that executed (or joined an in-flight execution).")
	s.coalesced = s.reg.Counter("tat_coalesced_total",
		"Queries that waited on an identical in-flight execution.")
	s.errors = s.reg.Counter("tat_errors_total",
		"Parse or execution failures.")
	s.subQueries = s.reg.Counter("tat_subqueries_total",
		"Native sub-queries shipped across all executions.")
	s.batchProbes = s.reg.Counter("tat_batch_probes_total",
		"Batched bind-join dispatches across all executions.")
	s.prunedProbes = s.reg.Counter("tat_pruned_probes_total",
		"Bind-join probes pruned by digest filters before any round trip.")
	s.streamed = s.reg.Counter("tat_streams_total",
		"POST /cmq requests answered as NDJSON streams.")
	s.mutations = s.reg.Counter("tat_mutations_total",
		"Mutation requests applied over HTTP.")
	s.invalidations = s.reg.Counter("tat_result_cache_invalidations_total",
		"Stale result-cache generations flushed.")
	s.probeInvalidations = s.reg.Counter("tat_probe_invalidations_total",
		"Probe-cache result entries force-dropped.")
	s.inFlightStreams = s.reg.Gauge("tat_streams_in_flight",
		"NDJSON streams currently open.")
	s.inFlightQueries = s.reg.Gauge("tat_queries_in_flight",
		"POST /cmq requests currently being handled.")
	s.querySeconds = s.reg.Histogram("tat_query_seconds",
		"End-to-end POST /cmq handling latency.", obs.DurationBuckets())
	s.ttfrSeconds = s.reg.Histogram("tat_query_ttfr_seconds",
		"Time to first row of NDJSON streamed responses.", obs.DurationBuckets())
	return s
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	entries := 0
	if s.cache != nil {
		entries = s.cache.Len()
	}
	s.mu.Unlock()
	st := Stats{
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Requests:           s.requests.Value(),
		CacheHits:          s.hits.Value(),
		CacheMisses:        s.misses.Value(),
		Coalesced:          s.coalesced.Value(),
		Errors:             s.errors.Value(),
		SubQueries:         s.subQueries.Value(),
		BatchProbes:        s.batchProbes.Value(),
		Streamed:           s.streamed.Value(),
		InFlightStreams:    s.inFlightStreams.Value(),
		CacheEntries:       entries,
		Epoch:              s.in.Epoch(),
		Mutations:          s.mutations.Value(),
		Invalidations:      s.invalidations.Value(),
		ProbeInvalidations: s.probeInvalidations.Value(),
		Saturation:         s.in.SaturationStats(),
		Digest: DigestBlock{
			DigestStats:  s.in.DigestStats(),
			PrunedProbes: s.prunedProbes.Value(),
		},
	}
	st.Memory.JoinMemBudget = s.opts.Exec.JoinMemBudget
	st.Memory.SpilledJoins, st.Memory.SpilledBytes = core.SpillCounters()
	st.Store = s.in.StoreStats()
	return st
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cmq", s.handleCMQ)
	mux.HandleFunc("POST /graph", func(w http.ResponseWriter, r *http.Request) { s.handleGraph(w, r, false) })
	mux.HandleFunc("DELETE /graph", func(w http.ResponseWriter, r *http.Request) { s.handleGraph(w, r, true) })
	mux.HandleFunc("POST /sources", s.handleSourceAdd)
	mux.HandleFunc("DELETE /sources", s.handleSourceDrop)
	mux.HandleFunc("DELETE /sources/{uri...}", s.handleSourceDrop)
	mux.HandleFunc("POST /admin/invalidate", s.handleInvalidate)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Server-scoped registry first, then the process-wide one (pager,
	// probe caches, federation RTT): one scrape sees the whole stack.
	mux.Handle("GET /metrics", obs.Handler(s.reg, obs.Default))
	mux.Handle("GET /debug/queries", s.recorder.Handler())
	if s.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	var reqLog *slog.Logger
	if s.opts.LogRequests {
		reqLog = s.logger
	}
	return obs.Wrap("server", mux, reqLog)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// maxMutationBytes bounds a mutation request body (a POST /graph can
// legitimately carry a large triple document).
const maxMutationBytes = 16 << 20

// handleGraph inserts (POST) or removes (DELETE) triples in the custom
// graph G through the epoch-bumping instance API, so the next query
// re-saturates and result-cache generations rotate.
func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request, remove bool) {
	body, isJSON, err := readBody(r, maxMutationBytes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, GraphResponse{Error: err.Error()})
		return
	}
	text := string(body)
	if isJSON {
		var req GraphRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, GraphResponse{Error: "server: bad JSON body: " + err.Error()})
			return
		}
		text = req.Triples
	}
	if strings.TrimSpace(text) == "" {
		writeJSON(w, http.StatusBadRequest, GraphResponse{Error: "server: empty triple document"})
		return
	}
	ts, err := rdf.ParseString(text)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, GraphResponse{Error: err.Error()})
		return
	}
	var changed int
	if remove {
		changed = s.in.RemoveTriples(ts)
	} else {
		changed = s.in.AddTriples(ts)
	}
	s.mutations.Add(1)
	writeJSON(w, http.StatusOK, GraphResponse{Changed: changed, Size: s.in.Graph().Size(), Epoch: s.in.Epoch()})
}

// handleSourceAdd dials a remote federation endpoint and registers it
// as a source of the shared instance; the registry's interposed
// wrapper gives it a probe cache like any seed source.
func (s *Server) handleSourceAdd(w http.ResponseWriter, r *http.Request) {
	var req SourceRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxQueryBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, SourceResponse{Error: "server: bad JSON body: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.URL) == "" {
		writeJSON(w, http.StatusBadRequest, SourceResponse{Error: "server: missing url"})
		return
	}
	c, err := federation.Dial(req.URL)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, SourceResponse{Error: err.Error()})
		return
	}
	if err := s.in.AddSource(c); err != nil {
		writeJSON(w, http.StatusConflict, SourceResponse{Error: err.Error()})
		return
	}
	s.mutations.Add(1)
	writeJSON(w, http.StatusOK, SourceResponse{URI: c.URI(), Epoch: s.in.Epoch()})
}

// handleSourceDrop removes a registered source. The URI arrives either
// path-escaped in the path (DELETE /sources/sql:%2F%2Finsee) or as the
// uri query parameter (DELETE /sources?uri=sql://insee); the latter
// avoids ServeMux's clean-path redirect for URIs containing "//".
func (s *Server) handleSourceDrop(w http.ResponseWriter, r *http.Request) {
	uri := r.PathValue("uri")
	if uri == "" {
		uri = r.URL.Query().Get("uri")
	}
	if uri == "" {
		writeJSON(w, http.StatusBadRequest, SourceResponse{Error: "server: missing source URI"})
		return
	}
	if !s.in.DropSource(uri) {
		writeJSON(w, http.StatusNotFound, SourceResponse{Error: fmt.Sprintf("server: source %q not registered", uri)})
		return
	}
	s.mutations.Add(1)
	writeJSON(w, http.StatusOK, SourceResponse{URI: uri, Epoch: s.in.Epoch()})
}

// handleInvalidate force-expires cached state derived from the
// instance: with no body (or an empty one) every probe cache flushes
// and the epoch bumps; {"source": "uri"} scopes the flush to one
// source. Either way the result cache rotates to a new generation.
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	body, isJSON, err := readBody(r, maxQueryBytes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, InvalidateResponse{Error: err.Error()})
		return
	}
	var req InvalidateRequest
	if len(body) > 0 {
		// Unlike /graph there is no raw-body form here: silently ignoring
		// a non-JSON body would turn an intended source-scoped
		// invalidation into a full flush.
		if !isJSON {
			writeJSON(w, http.StatusBadRequest, InvalidateResponse{Error: "server: body must be application/json"})
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, InvalidateResponse{Error: "server: bad JSON body: " + err.Error()})
			return
		}
	}
	var epoch uint64
	var dropped int
	if req.Source != "" {
		epoch, dropped, err = s.in.InvalidateSource(req.Source)
		if err != nil {
			writeJSON(w, http.StatusNotFound, InvalidateResponse{Error: err.Error()})
			return
		}
	} else {
		epoch, dropped = s.in.Invalidate()
	}
	s.probeInvalidations.Add(int64(dropped))
	writeJSON(w, http.StatusOK, InvalidateResponse{Epoch: epoch, ProbeEntries: &dropped})
}

func (s *Server) handleCMQ(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, err := readQuery(r)
	if err != nil {
		s.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: err.Error()})
		return
	}
	// Parse first: malformed queries are always a 400, and the cache is
	// keyed on the parsed query's canonical form, so surface-syntax
	// variants (whitespace, comments) share an entry while any
	// semantically distinct query gets its own.
	q, _, err := core.ParseCMQ(req.Query)
	if err != nil {
		s.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: err.Error()})
		return
	}

	if req.Explain {
		// Plan only — nothing executes, no cache interaction.
		info, err := s.in.ExplainQuery(q, s.opts.Exec)
		if err != nil {
			s.errors.Add(1)
			writeJSON(w, http.StatusUnprocessableEntity, QueryResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{Explain: info})
		return
	}

	if req.Stream || wantsNDJSON(r) {
		s.handleStreamCMQ(w, r, q, req)
		return
	}

	start := time.Now()
	s.inFlightQueries.Add(1)
	defer func() {
		s.inFlightQueries.Add(-1)
		s.querySeconds.ObserveSince(start)
	}()

	key, epoch := s.generationKey(q.CanonicalKey())
	if res, ok := s.cacheGet(key); ok {
		s.hits.Add(1)
		s.recorder.Record(obs.QueryRecord{Query: req.Query, Start: start,
			Duration: time.Since(start), Rows: len(res.Rows), CacheHit: true})
		// A cache hit executed nothing: report zeroed stats so clients
		// (and benchmarks) can observe that no sub-query was shipped.
		writeJSON(w, http.StatusOK, QueryResponse{Cols: res.Cols, Rows: res.Rows, Cached: true})
		return
	}
	s.misses.Add(1)

	res, cached, err := s.execute(r.Context(), key, epoch, q)
	if err != nil {
		s.errors.Add(1)
		s.recorder.Record(obs.QueryRecord{Query: req.Query, Start: start,
			Duration: time.Since(start), Err: err.Error()})
		writeJSON(w, http.StatusUnprocessableEntity, QueryResponse{Error: err.Error()})
		return
	}
	resp := QueryResponse{Cols: res.Cols, Rows: res.Rows, Cached: cached}
	if !cached {
		resp.Stats = res.Stats
	}
	if req.Trace {
		// Coalesced followers share the leader's trace: the execution
		// they waited on IS the one that served them.
		resp.Trace = res.Trace
	}
	s.recorder.Record(obs.QueryRecord{Query: req.Query, Start: start,
		Duration: time.Since(start), Rows: len(res.Rows), CacheHit: cached, Trace: res.Trace})
	writeJSON(w, http.StatusOK, resp)
}

// generationKey prefixes the canonical query key with the instance's
// current epoch and lazily flushes the superseded cache generation.
// The epoch in the key is what makes mutation safe: a single-flight
// leader that started before a mutation finishes under the old epoch's
// key, so post-mutation requests can neither join it nor read the
// result it caches.
func (s *Server) generationKey(canonical string) (string, uint64) {
	epoch := s.in.Epoch()
	s.mu.Lock()
	// Strictly newer only: a request that loaded the epoch just before
	// a concurrent mutation must not regress the generation and flush
	// entries the newer generation just cached.
	if epoch > s.gen {
		if s.cache != nil {
			s.cache.Clear()
		}
		s.gen = epoch
		s.invalidations.Add(1)
	}
	s.mu.Unlock()
	return strconv.FormatUint(epoch, 10) + "|" + canonical, epoch
}

// execute runs the query under the single-flight guard: the first
// caller for a key executes; identical concurrent callers wait and
// share the leader's result (cached=true for them — they shipped no
// sub-queries of their own). With result caching disabled the guard is
// off too: every request executes for itself, directly under its own
// request context. epoch is the generation the key belongs to: a
// leader finishing after a newer generation flushed skips the Put —
// its old-epoch key could never be read again and would only waste
// LRU slots.
//
// Cancellation: the leader executes under a context detached from its
// own request but cancelled as soon as the LAST interested request
// (leader or coalesced follower) goes away — a disconnected leader
// whose followers still wait must not abort their shared execution,
// while a query nobody waits for anymore must stop probing remotes.
func (s *Server) execute(ctx context.Context, key string, epoch uint64, q *core.CMQ) (res *core.QueryResult, cached bool, err error) {
	if s.cache == nil {
		res, err = s.in.ExecuteContext(ctx, q, s.opts.Exec)
		if err == nil {
			s.subQueries.Add(int64(res.Stats.SubQueries))
			s.batchProbes.Add(int64(res.Stats.BatchProbes))
			s.prunedProbes.Add(int64(res.Stats.PrunedProbes))
		}
		return res, false, err
	}
	s.mu.Lock()
	// Re-check the cache under the lock: a leader may have finished
	// (inflight entry gone, result cached) between the handler's
	// cacheGet and here; without this a request in that window would
	// become a new leader and re-execute an already-cached query.
	if res, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		return res, true, nil
	}
	if call, ok := s.inflight[key]; ok {
		// The entry being present implies waiters > 0: the drop to zero
		// removes it under this same mutex, so this join cannot revive a
		// flight that is already being cancelled.
		call.waiters++
		s.mu.Unlock()
		s.coalesced.Add(1)
		stop := s.watchFlight(ctx, key, call)
		defer stop()
		<-call.done
		return call.res, true, call.err
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	call := &flightCall{done: make(chan struct{}), cancel: cancel, waiters: 1}
	s.inflight[key] = call
	s.mu.Unlock()
	stop := s.watchFlight(ctx, key, call)

	call.res, call.err = s.in.ExecuteContext(fctx, q, s.opts.Exec)
	stop()
	cancel()
	if call.err == nil {
		s.subQueries.Add(int64(call.res.Stats.SubQueries))
		s.batchProbes.Add(int64(call.res.Stats.BatchProbes))
		s.prunedProbes.Add(int64(call.res.Stats.PrunedProbes))
	}

	s.mu.Lock()
	// The last-waiter path may have removed the flight already — and a
	// NEW leader may have claimed the key since — so only delete our own
	// entry.
	if s.inflight[key] == call {
		delete(s.inflight, key)
	}
	if call.err == nil && epoch == s.gen {
		s.cache.Put(key, call.res)
	}
	s.mu.Unlock()
	close(call.done)
	return call.res, false, call.err
}

func (s *Server) cacheGet(key string) (*core.QueryResult, bool) {
	if s.cache == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Get(key)
}

// maxQueryBytes bounds a POST /cmq body; larger requests are rejected
// outright rather than silently truncated to a still-parseable prefix.
const maxQueryBytes = 1 << 20

// readBody reads at most max bytes of the request body — larger bodies
// are rejected outright rather than silently truncated — and reports
// whether the request declared a JSON content type.
func readBody(r *http.Request, max int64) ([]byte, bool, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, max+1))
	if err != nil {
		return nil, false, fmt.Errorf("server: read body: %w", err)
	}
	if int64(len(body)) > max {
		return nil, false, fmt.Errorf("server: body exceeds %d bytes", max)
	}
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return body, err == nil && mt == "application/json", nil
}

// readQuery extracts the request from the body of POST /cmq: a JSON
// QueryRequest envelope when Content-Type is application/json,
// otherwise the raw body as the query text with every flag off.
func readQuery(r *http.Request) (QueryRequest, error) {
	body, isJSON, err := readBody(r, maxQueryBytes)
	if err != nil {
		return QueryRequest{}, err
	}
	if isJSON {
		var req QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return QueryRequest{}, fmt.Errorf("server: bad JSON body: %w", err)
		}
		if strings.TrimSpace(req.Query) == "" {
			return QueryRequest{}, fmt.Errorf("server: empty query")
		}
		return req, nil
	}
	text := string(body)
	if strings.TrimSpace(text) == "" {
		return QueryRequest{}, fmt.Errorf("server: empty query")
	}
	return QueryRequest{Query: text}, nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// NewHTTPServer wraps a handler in an http.Server with sane timeouts —
// a bare ListenAndServe has none and is slowloris-vulnerable. Shared by
// the mediator service and cmd/sourced. The write timeout is generous
// because it bounds the whole handler, and a cold federated query can
// legitimately ship many slow remote sub-queries; the slowloris defense
// is the header/read timeouts, not the write bound.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}
