// Package federation implements TATOOINE's HTTP federation layer: any
// DataSource can be served as an HTTP endpoint, and any such endpoint
// can be consumed as a DataSource by a remote mediator. This is the
// code path the paper exercises against SPARQL endpoints and
// dynamically discovered databases ("the address of a relational
// database is found in an INSEE table and part of the mixed query is
// shipped there for evaluation", §1).
package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tatooine/internal/digest"
	"tatooine/internal/obs"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// remoteRTT observes every federation HTTP round trip, labeled by the
// remote's advertised URI — the wire-level view behind the planner's
// RemoteCostOverhead constant.
var remoteRTT = obs.Default.HistogramVec("tat_remote_rtt_seconds",
	"Federation HTTP round-trip latency by remote source URI.",
	"remote", obs.DurationBuckets())

// QueryRequest is the wire form of a sub-query execution request
// (POST /query).
type QueryRequest struct {
	Language string        `json:"language"`
	Text     string        `json:"text"`
	InVars   []string      `json:"inVars,omitempty"`
	Params   []value.Value `json:"params,omitempty"`
}

// QueryResponse is the wire form of a result (or error).
type QueryResponse struct {
	Cols  []string    `json:"cols,omitempty"`
	Rows  []value.Row `json:"rows,omitempty"`
	Error string      `json:"error,omitempty"`
}

// BatchRequest is the wire form of a batched sub-query execution
// (POST /batch): one sub-query, many parameter tuples, one round trip.
type BatchRequest struct {
	Language  string      `json:"language"`
	Text      string      `json:"text"`
	InVars    []string    `json:"inVars,omitempty"`
	ParamSets []value.Row `json:"paramSets"`
	// Prune optionally carries one Bloom filter per InVar position (nil
	// = no filter for that position), taken from the mediator's digest
	// of this endpoint: tuples a filter provably excludes answer an
	// empty result without touching the store. Filters have no false
	// negatives, so results are identical with or without the field,
	// and filters from a different wire version decode as pass-through.
	Prune []*digest.Bloom `json:"prune,omitempty"`
}

// BatchResponse carries one result per parameter tuple, aligned with
// the request's ParamSets (or an error).
type BatchResponse struct {
	Results []QueryResponse `json:"results,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// MetaResponse describes a served source (GET /meta).
type MetaResponse struct {
	URI       string   `json:"uri"`
	Model     string   `json:"model"`
	Languages []string `json:"languages"`
}

// EstimateRequest is the wire form of a cost estimation (POST /estimate).
type EstimateRequest struct {
	Language  string `json:"language"`
	Text      string `json:"text"`
	NumParams int    `json:"numParams"`
}

// EstimateResponse carries the estimated result cardinality and cost
// (see source.Estimator); negative values mean unknown.
type EstimateResponse struct {
	Cost  int    `json:"cost"`
	Rows  int    `json:"rows"`
	Error string `json:"error,omitempty"`
}

// Handler serves a DataSource over HTTP. Routes: GET /meta,
// POST /query, POST /batch, POST /estimate, GET /digest. Every route
// joins the caller's trace when the request carries X-Tat-* headers
// and reports its server-side time back, so a mediator's span tree
// attributes remote compute distinctly from wire RTT.
func Handler(src source.DataSource) http.Handler {
	return obs.Wrap("remote", handlerMux(src), nil)
}

func handlerMux(src source.DataSource) http.Handler {
	mux := http.NewServeMux()
	// The digest is built on every request, so it always describes the
	// source as it is now. The mediator's digest catalog is the one cache:
	// it fetches once per catalog reset.
	mux.HandleFunc("GET /digest", func(w http.ResponseWriter, r *http.Request) {
		d, err := digest.ForSource(src, digest.DefaultBudget())
		if err == nil && d == nil {
			err = fmt.Errorf("source %s cannot be digested", src.URI())
		}
		var body []byte
		if err == nil {
			body, err = json.Marshal(d)
		}
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	})
	mux.HandleFunc("GET /meta", func(w http.ResponseWriter, r *http.Request) {
		langs := make([]string, 0, len(src.Languages()))
		for _, l := range src.Languages() {
			langs = append(langs, string(l))
		}
		writeJSON(w, http.StatusOK, MetaResponse{
			URI:       src.URI(),
			Model:     src.Model().String(),
			Languages: langs,
		})
	})
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad request: " + err.Error()})
			return
		}
		res, err := src.Execute(source.SubQuery{
			Language: source.Language(req.Language),
			Text:     req.Text,
			InVars:   req.InVars,
		}, req.Params)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, QueryResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{Cols: res.Cols, Rows: res.Rows})
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, BatchResponse{Error: "bad request: " + err.Error()})
			return
		}
		q := source.SubQuery{
			Language: source.Language(req.Language),
			Text:     req.Text,
			InVars:   req.InVars,
		}
		// Digest semi-join pruning, server side: tuples the shipped
		// per-position Bloom filters provably exclude answer an empty
		// result (no cols, no rows) without reaching the store. keep maps
		// surviving tuples back to their request positions; nil means
		// nothing was pruned.
		params := req.ParamSets
		var keep []int
		if len(req.Prune) > 0 {
			survivors := make([]value.Row, 0, len(params))
			keep = make([]int, 0, len(params))
			for i, t := range params {
				if pruneTuple(req.Prune, t) {
					continue
				}
				keep = append(keep, i)
				survivors = append(survivors, t)
			}
			if len(keep) == len(params) {
				keep = nil
			} else {
				params = survivors
			}
		}
		// Native pushdown when the source batches; otherwise loop the
		// tuples server-side — the caller still saved N-1 network round
		// trips, which is the point of the endpoint.
		var results []*source.Result
		var err error
		switch {
		case len(params) == 0:
			// Every tuple pruned: nothing to execute.
		default:
			if bp, ok := src.(source.BatchProber); ok {
				results, err = bp.ExecuteBatch(q, params)
				if errors.Is(err, source.ErrBatchUnsupported) {
					results, err = source.ExecuteSerially(src, q, params)
				}
			} else {
				results, err = source.ExecuteSerially(src, q, params)
			}
		}
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, BatchResponse{Error: err.Error()})
			return
		}
		if len(results) != len(params) {
			writeJSON(w, http.StatusUnprocessableEntity, BatchResponse{Error: fmt.Sprintf(
				"federation: source returned %d results for %d tuples", len(results), len(params))})
			return
		}
		resp := BatchResponse{Results: make([]QueryResponse, len(req.ParamSets))}
		for j, res := range results {
			if res == nil {
				writeJSON(w, http.StatusUnprocessableEntity, BatchResponse{Error: fmt.Sprintf(
					"federation: source returned a nil result for tuple %d", j)})
				return
			}
			pos := j
			if keep != nil {
				pos = keep[j]
			}
			resp.Results[pos] = QueryResponse{Cols: res.Cols, Rows: res.Rows}
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /estimate", func(w http.ResponseWriter, r *http.Request) {
		var req EstimateRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, EstimateResponse{Cost: -1, Error: err.Error()})
			return
		}
		rows, cost := source.EstimateOf(src, source.SubQuery{
			Language: source.Language(req.Language),
			Text:     req.Text,
		}, req.NumParams)
		writeJSON(w, http.StatusOK, EstimateResponse{Cost: cost, Rows: rows})
	})
	return mux
}

// pruneTuple reports whether a parameter tuple is provably excluded by
// the per-position Bloom filters of a batch request. Positions without
// a filter, values without a probe key (NULLs), and filters from a
// foreign wire version (which decode as pass-through) never prune.
func pruneTuple(filters []*digest.Bloom, t value.Row) bool {
	for pos, b := range filters {
		if b == nil || pos >= len(t) {
			continue
		}
		key, ok := digest.ProbeKey(t[pos])
		if !ok {
			continue
		}
		if !b.MayContainKey(key) {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is written can only be logged by
	// the server; the stdlib http server handles broken pipes.
	_ = json.NewEncoder(w).Encode(body)
}

// Client is a DataSource backed by a remote federation endpoint.
type Client struct {
	baseURL string
	http    *http.Client
	meta    MetaResponse
	// rttEWMA (nanos) smooths observed round-trip latencies; see
	// ObservedRTT. lastRTTWarn rate-limits the slow-remote warning.
	rttEWMA     atomic.Int64
	lastRTTWarn atomic.Int64
}

// ObservedRTT returns the smoothed round-trip latency of this remote
// (an exponentially weighted moving average over /query, /batch and
// /estimate calls), or zero before any call completed. It is the
// measured counterpart of the planner's modeled RemoteCostOverheadRTT.
func (c *Client) ObservedRTT() time.Duration {
	return time.Duration(c.rttEWMA.Load())
}

// observeRTT folds one round trip into the EWMA and the per-remote RTT
// histogram, and warns — at most once a minute per remote — when the
// observed latency exceeds 10× the modeled RemoteCostOverheadRTT: the
// planner is then charging this remote far too little, and its plans
// will over-prefer it.
func (c *Client) observeRTT(d time.Duration) {
	const alpha = 8 // EWMA smoothing: new = old + (obs-old)/alpha
	for {
		old := c.rttEWMA.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/alpha
		}
		if c.rttEWMA.CompareAndSwap(old, next) {
			break
		}
	}
	remoteRTT.With(c.URI()).ObserveDuration(d)
	if d > 10*RemoteCostOverheadRTT {
		now := time.Now().UnixNano()
		last := c.lastRTTWarn.Load()
		if now-last > int64(time.Minute) && c.lastRTTWarn.CompareAndSwap(last, now) {
			slog.Warn("federation: remote RTT far above modeled overhead",
				slog.String("remote", c.URI()),
				slog.Duration("rtt", d),
				slog.Duration("modeled", RemoteCostOverheadRTT))
		}
	}
}

// Dial fetches the remote source's metadata and returns a client. The
// returned source's URI is the remote's advertised URI when available,
// else the base URL.
func Dial(baseURL string) (*Client, error) {
	c := &Client{
		baseURL: baseURL,
		http:    &http.Client{Timeout: 30 * time.Second},
	}
	resp, err := c.http.Get(baseURL + "/meta")
	if err != nil {
		return nil, fmt.Errorf("federation: dial %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.statusError("dial", resp)
	}
	// Bound the meta body like every other decode path: a misbehaving
	// endpoint must not be able to balloon mediator memory.
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&c.meta); err != nil {
		return nil, fmt.Errorf("federation: dial %s: bad meta: %w", baseURL, err)
	}
	if c.meta.URI == "" {
		c.meta.URI = baseURL
	}
	return c, nil
}

// URI implements source.DataSource.
func (c *Client) URI() string { return c.meta.URI }

// BaseURL returns the endpoint the client talks to.
func (c *Client) BaseURL() string { return c.baseURL }

// Model implements source.DataSource.
func (c *Client) Model() source.Model {
	switch c.meta.Model {
	case "relational":
		return source.RelationalModel
	case "document":
		return source.DocumentModel
	default:
		return source.RDFModel
	}
}

// Languages implements source.DataSource.
func (c *Client) Languages() []source.Language {
	out := make([]source.Language, 0, len(c.meta.Languages))
	for _, l := range c.meta.Languages {
		out = append(out, source.Language(l))
	}
	return out
}

// post ships a JSON body to a route under the endpoint's base URL,
// bound to ctx: cancelling the context aborts the in-flight HTTP
// request, which is how a cancelled query reaches remote probes. When
// ctx carries a span, its trace and span IDs propagate as X-Tat-*
// request headers so the remote joins the trace.
func (c *Client) post(ctx context.Context, route string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+route, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if s := obs.SpanFromContext(ctx); s != nil {
		req.Header.Set(obs.TraceHeader, s.TraceID())
		req.Header.Set(obs.SpanHeader, s.ID())
	}
	return c.http.Do(req)
}

// roundTrip is post under a call span with RTT accounting: the call
// gets a "remote <route>" child span carrying the remote's URI, and —
// when the endpoint joined the trace — the remote's root span ID plus
// the server-side/wire split of the observed latency (the remote
// reports its own elapsed time via ServerTimeHeader; the difference is
// time on the wire).
func (c *Client) roundTrip(ctx context.Context, route string, body []byte) (*http.Response, error) {
	ctx, sp := obs.StartSpan(ctx, "remote "+route)
	sp.SetAttr("remote", c.URI())
	start := time.Now()
	resp, err := c.post(ctx, route, body)
	rtt := time.Since(start)
	if err != nil {
		sp.End()
		return nil, err
	}
	c.observeRTT(rtt)
	if rid := resp.Header.Get(obs.SpanHeader); rid != "" {
		sp.SetAttr("remoteSpan", rid)
	}
	if ns := resp.Header.Get(obs.ServerTimeHeader); ns != "" {
		if n, perr := strconv.ParseInt(ns, 10, 64); perr == nil && n >= 0 {
			sp.SetAttr("serverNs", ns)
			if wire := int64(rtt) - n; wire > 0 {
				sp.SetAttr("wireNs", strconv.FormatInt(wire, 10))
			}
		}
	}
	sp.End()
	return resp, nil
}

// Execute implements source.DataSource by shipping the sub-query to the
// remote endpoint.
func (c *Client) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	return c.ExecuteContext(context.Background(), q, params)
}

// ExecuteContext implements source.ContextExecutor: the probe's HTTP
// request is bound to ctx, so a cancelled or expired query aborts the
// round trip instead of leaking it.
func (c *Client) ExecuteContext(ctx context.Context, q source.SubQuery, params []value.Value) (*source.Result, error) {
	req := QueryRequest{
		Language: string(q.Language),
		Text:     q.Text,
		InVars:   q.InVars,
		Params:   params,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("federation: marshal: %w", err)
	}
	resp, err := c.roundTrip(ctx, "/query", body)
	if err != nil {
		return nil, fmt.Errorf("federation: query %s: %w", c.baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.statusError("query", resp)
	}
	var qr QueryResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&qr); err != nil {
		return nil, fmt.Errorf("federation: query %s: bad response: %w", c.baseURL, err)
	}
	if qr.Error != "" {
		return nil, fmt.Errorf("federation: remote %s: %s", c.baseURL, qr.Error)
	}
	return &source.Result{Cols: qr.Cols, Rows: qr.Rows}, nil
}

// ExecuteBatch implements source.BatchProber by shipping the whole
// batch as ONE request to the remote /batch endpoint — this is where
// bind-join batching pays for remote sources: ⌈N/batch⌉ HTTP round
// trips instead of N, with the remote side pushing the batch natively
// into its store when it can.
func (c *Client) ExecuteBatch(q source.SubQuery, paramSets []value.Row) ([]*source.Result, error) {
	return c.ExecuteBatchContext(context.Background(), q, paramSets)
}

// ExecuteBatchContext implements source.ContextBatchProber; see
// ExecuteBatch and ExecuteContext.
func (c *Client) ExecuteBatchContext(ctx context.Context, q source.SubQuery, paramSets []value.Row) ([]*source.Result, error) {
	req := BatchRequest{
		Language:  string(q.Language),
		Text:      q.Text,
		InVars:    q.InVars,
		ParamSets: paramSets,
		Prune:     pruneFilters(q.Prune),
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("federation: marshal batch: %w", err)
	}
	resp, err := c.roundTrip(ctx, "/batch", body)
	if err != nil {
		return nil, fmt.Errorf("federation: batch %s: %w", c.baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.statusError("batch", resp)
	}
	var br BatchResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&br); err != nil {
		return nil, fmt.Errorf("federation: batch %s: bad response: %w", c.baseURL, err)
	}
	if br.Error != "" {
		return nil, fmt.Errorf("federation: remote %s: %s", c.baseURL, br.Error)
	}
	if len(br.Results) != len(paramSets) {
		return nil, fmt.Errorf("federation: batch %s: %d results for %d tuples", c.baseURL, len(br.Results), len(paramSets))
	}
	out := make([]*source.Result, len(br.Results))
	for i, qr := range br.Results {
		if qr.Error != "" {
			return nil, fmt.Errorf("federation: remote %s: tuple %d: %s", c.baseURL, i, qr.Error)
		}
		out[i] = &source.Result{Cols: qr.Cols, Rows: qr.Rows}
	}
	return out, nil
}

// pruneFilters projects a sub-query's per-position probe filters onto
// the wire: only digest Bloom filters serialize (other ProbeFilter
// implementations stay mediator-local), and an all-nil set is dropped
// entirely so unfiltered batches carry no extra bytes.
func pruneFilters(filters []source.ProbeFilter) []*digest.Bloom {
	any := false
	for _, f := range filters {
		if b, ok := f.(*digest.Bloom); ok && b != nil {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	out := make([]*digest.Bloom, len(filters))
	for i, f := range filters {
		if b, ok := f.(*digest.Bloom); ok {
			out[i] = b
		}
	}
	return out
}

// statusError turns a non-OK response into an error. The status is
// checked before decoding: a non-JSON error body (a proxy 502, a wrong
// route) must surface as the HTTP status, not as a confusing decode
// failure; when the endpoint did send a JSON error, its message is
// included alongside the status.
func (c *Client) statusError(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
	var envelope struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &envelope) == nil && envelope.Error != "" {
		return fmt.Errorf("federation: %s %s: status %s: %s", op, c.baseURL, resp.Status, envelope.Error)
	}
	return fmt.Errorf("federation: %s %s: status %s", op, c.baseURL, resp.Status)
}

// RemoteCostOverhead is the flat cost a Client adds to the remote's
// self-reported estimate: shipping a sub-query pays an HTTP round trip
// the remote does not account for, so with otherwise-equal estimates
// the planner should prefer the local source.
const RemoteCostOverhead = 32

// RemoteCostOverheadRTT is the wall-clock round trip RemoteCostOverhead
// models — the duration the planner implicitly assumes when it charges
// a remote those 32 cost units. Client.ObservedRTT measures the real
// value per remote; when the observed RTT exceeds 10× this constant the
// client logs a warning, because the planner is then under-charging the
// remote and its plans will over-prefer it. The constant itself stays
// fixed so plan ordering remains deterministic across runs.
const RemoteCostOverheadRTT = 10 * time.Millisecond

// Estimate implements source.Estimator by asking the remote endpoint;
// network and remote failures degrade to unknown (-1, -1). The status
// and error envelope are checked before the payload is trusted: a
// 404/502 JSON error body would otherwise decode to Cost: 0 and make a
// broken remote look like the cheapest source in the plan. The cost
// carries RemoteCostOverhead on top.
func (c *Client) Estimate(q source.SubQuery, numParams int) (rows, cost int) {
	body, err := json.Marshal(EstimateRequest{
		Language:  string(q.Language),
		Text:      q.Text,
		NumParams: numParams,
	})
	if err != nil {
		return -1, -1
	}
	start := time.Now()
	resp, err := c.http.Post(c.baseURL+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		return -1, -1
	}
	c.observeRTT(time.Since(start))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return -1, -1
	}
	var er EstimateResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&er); err != nil {
		return -1, -1
	}
	if er.Error != "" {
		return -1, -1
	}
	rows, cost = er.Rows, er.Cost
	if rows < 0 || cost < 0 {
		return -1, -1
	}
	return rows, cost + RemoteCostOverhead
}

// Digest implements digest.Digester: it fetches the remote endpoint's
// digest so remote sources participate in keyword search. The remote
// computes under its own default budget; the budget argument is
// accepted for interface compatibility.
func (c *Client) Digest(_ digest.Budget) (*digest.Digest, error) {
	resp, err := c.http.Get(c.baseURL + "/digest")
	if err != nil {
		return nil, fmt.Errorf("federation: digest %s: %w", c.baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// statusError reads the error body through a bounded reader, so a
		// misbehaving endpoint cannot balloon memory here either.
		return nil, c.statusError("digest", resp)
	}
	var d digest.Digest
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&d); err != nil {
		return nil, fmt.Errorf("federation: digest %s: %w", c.baseURL, err)
	}
	return &d, nil
}

// Resolver returns a source.Resolver that dials remote endpoints,
// suitable for Registry.SetFallback: it enables dynamic source
// discovery of URIs found in query results.
func Resolver() source.Resolver {
	return func(uri string) (source.DataSource, error) {
		return Dial(uri)
	}
}
