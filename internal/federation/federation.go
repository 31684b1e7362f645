// Package federation implements TATOOINE's HTTP federation layer: any
// DataSource can be served as an HTTP endpoint, and any such endpoint
// can be consumed as a DataSource by a remote mediator. This is the
// code path the paper exercises against SPARQL endpoints and
// dynamically discovered databases ("the address of a relational
// database is found in an INSEE table and part of the mixed query is
// shipped there for evaluation", §1).
package federation

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
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

// The body of POST /batch, both ways, is value.AppendFrame frames and
// uvarint counts, in the media type batchMediaType; a request or
// reply in any other media type is refused (415 at the endpoint).
//
//	request: frame(language, text, InVars... as strings)
//	         uvarint tuple count, then one frame per parameter tuple
//	200:     uvarint result count, then per result (one per tuple):
//	         frame(column names as strings), uvarint row count, row frames
//
// Bytes after the last frame are an error on both sides. Every other
// status carries a JSON {"error": ...} body, as the other routes do.
// Every tuple executes: digest pruning happens on the mediator, which
// ships only the bindings its digest of this endpoint does not exclude.
const batchMediaType = "application/x-tatooine-frames"

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

// Handler serves a DataSource over HTTP. Routes: GET /meta, POST /batch
// (the one data route: scans, probes and batches), POST /estimate and
// GET /digest. Every route joins the caller's trace when the request
// carries X-Tat-* headers and reports its server-side time back, so a
// mediator's span tree attributes remote compute distinctly from wire
// RTT.
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
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != batchMediaType {
			writeError(w, http.StatusUnsupportedMediaType, fmt.Sprintf("bad /batch request: media type %q, want %q", ct, batchMediaType))
			return
		}
		q, paramSets, err := readBatchRequest(bufio.NewReader(http.MaxBytesReader(w, r.Body, value.MaxFrame)))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad /batch request: "+err.Error())
			return
		}
		results, err := source.ExecuteBatchWith(r.Context(), src, q, paramSets)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		if len(results) != len(paramSets) {
			writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf(
				"federation: source returned %d results for %d tuples", len(results), len(paramSets)))
			return
		}
		for j, res := range results {
			if res == nil {
				writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf(
					"federation: source returned a nil result for tuple %d", j))
				return
			}
		}
		w.Header().Set("Content-Type", batchMediaType)
		_, _ = w.Write(appendBatchReply(nil, results))
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

// appendBatchRequest appends the /batch request body for q and its
// parameter tuples to buf.
func appendBatchRequest(buf []byte, q source.SubQuery, paramSets []value.Row) []byte {
	return appendTable(buf, append([]string{string(q.Language), q.Text}, q.InVars...), paramSets)
}

// readBatchRequest reads a /batch request body.
func readBatchRequest(r *bufio.Reader) (source.SubQuery, []value.Row, error) {
	var scratch []byte
	head, paramSets, err := readTable(r, &scratch)
	if err == nil && len(head) < 2 {
		err = fmt.Errorf("header frame of %d strings, want at least 2", len(head))
	}
	if err != nil {
		return source.SubQuery{}, nil, err
	}
	q := source.SubQuery{Language: source.Language(head[0]), Text: head[1], InVars: head[2:]}
	return q, paramSets, readEnd(r)
}

// appendBatchReply appends the 200 /batch reply carrying results to buf.
func appendBatchReply(buf []byte, results []*source.Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(results)))
	for _, res := range results {
		buf = appendTable(buf, res.Cols, res.Rows)
	}
	return buf
}

// appendTable appends head as one frame of strings, then a uvarint
// count of rows and a frame per row: a request's sub-query and
// parameter tuples, or one result's columns and rows.
func appendTable(buf []byte, head []string, rows []value.Row) []byte {
	hr := make(value.Row, 0, 8) // on the stack for up to 8 strings
	for _, s := range head {
		hr = append(hr, value.NewString(s))
	}
	buf = binary.AppendUvarint(value.AppendFrame(buf, hr), uint64(len(rows)))
	for _, row := range rows {
		buf = value.AppendFrame(buf, row)
	}
	return buf
}

// readTable reads what appendTable appends.
func readTable(r *bufio.Reader, scratch *[]byte) ([]string, []value.Row, error) {
	hr, err := value.ReadFrame(r, scratch)
	if err != nil {
		return nil, nil, err
	}
	head := make([]string, len(hr))
	for i, v := range hr {
		if v.Kind() != value.String {
			return nil, nil, fmt.Errorf("value %d of a string frame is a %s", i, v.Kind())
		}
		head[i] = v.Str()
	}
	n, err := value.ReadCount(r)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]value.Row, 0, min(n, 1024))
	for range n {
		row, err := value.ReadFrame(r, scratch)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
	}
	return head, rows, nil
}

// readEnd checks that r holds nothing after the last frame.
func readEnd(r *bufio.Reader) error {
	if _, err := r.ReadByte(); err != io.EOF {
		if err == nil {
			return errors.New("bytes after the last frame")
		}
		return err
	}
	return nil
}

// writeError writes a non-200 reply: a JSON {"error": msg}.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
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
// (an exponentially weighted moving average over /batch and
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

// roundTrip posts a /batch body to a route under the endpoint's base
// URL, bound to ctx: cancelling the context aborts the in-flight HTTP
// request, which is how a cancelled query reaches remote probes. The
// call runs under a "remote <route>" child span carrying the remote's
// URI, whose trace and span IDs propagate as X-Tat-* request headers
// so the remote joins the trace. When it did, the span gets the
// remote's root span ID plus the server-side/wire split of the
// observed latency (the remote reports its own elapsed time via
// ServerTimeHeader; the difference is time on the wire).
func (c *Client) roundTrip(ctx context.Context, route string, body []byte) (*http.Response, error) {
	ctx, sp := obs.StartSpan(ctx, "remote "+route)
	defer sp.End()
	sp.SetAttr("remote", c.URI())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+route, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", batchMediaType)
	if s := obs.SpanFromContext(ctx); s != nil {
		req.Header.Set(obs.TraceHeader, s.TraceID())
		req.Header.Set(obs.SpanHeader, s.ID())
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	rtt := time.Since(start)
	if err != nil {
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
	return resp, nil
}

// Execute implements source.DataSource by shipping the sub-query to the
// remote endpoint.
func (c *Client) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	return c.ExecuteContext(context.Background(), q, params)
}

// ExecuteContext implements source.ContextExecutor as a batch of one:
// the probe's HTTP request is bound to ctx, so a cancelled or expired
// query aborts the round trip instead of leaking it.
func (c *Client) ExecuteContext(ctx context.Context, q source.SubQuery, params []value.Value) (*source.Result, error) {
	results, err := c.ExecuteBatchContext(ctx, q, []value.Row{params})
	if err != nil {
		return nil, err
	}
	return results[0], nil
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
	resp, err := c.roundTrip(ctx, "/batch", appendBatchRequest(nil, q, paramSets))
	if err != nil {
		return nil, fmt.Errorf("federation: batch %s: %w", c.baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.statusError("batch", resp)
	}
	if ct := resp.Header.Get("Content-Type"); ct != batchMediaType {
		return nil, fmt.Errorf("federation: batch %s: bad response: media type %q, want %q", c.baseURL, ct, batchMediaType)
	}
	out, err := readBatchReply(bufio.NewReader(http.MaxBytesReader(nil, resp.Body, value.MaxFrame)), len(paramSets))
	if err != nil {
		return nil, fmt.Errorf("federation: batch %s: bad response: %w", c.baseURL, err)
	}
	return out, nil
}

// readBatchReply reads a 200 /batch reply that must hold exactly want
// results.
func readBatchReply(r *bufio.Reader, want int) ([]*source.Result, error) {
	n, err := value.ReadCount(r)
	if err == nil && n != want {
		err = fmt.Errorf("%d results for %d tuples", n, want)
	}
	if err != nil {
		return nil, err
	}
	var scratch []byte
	out := make([]*source.Result, n)
	for i := range out {
		cols, rows, err := readTable(r, &scratch)
		if err != nil {
			return nil, err
		}
		out[i] = &source.Result{Cols: cols, Rows: rows}
	}
	return out, readEnd(r)
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
// the planner should prefer the local source. It applies only to
// estimates the remote answers over /estimate: the planner estimates
// from the catalog digest first, at cost = rows, and asks the remote
// only for shapes the digest refuses. So equal-row ties between
// digest-answered atoms no longer favour local sources.
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
