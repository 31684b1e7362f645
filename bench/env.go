package main

import (
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/federation"
	"tatooine/internal/pager"
	"tatooine/internal/server"
	"tatooine/internal/source"
	"tatooine/internal/store"
)

// Workload names, as in BENCHMARK.json.
const (
	wlServeHot  = "serve_hot"
	wlServeExec = "serve_exec"
	wlFederated = "federated_stream"
	wlDurable   = "durable_mutate"
)

var workloadNames = []string{wlServeHot, wlServeExec, wlFederated, wlDurable}

// sizes fixes how much data a workload runs over. The dataset itself never
// depends on -seed (datagen's own seed stays at its default): the seed draws
// the query sequence, and the program under test sees only the texts.
type sizes struct {
	politicians int
	tweets      int
	// cachePages caps the durable store's page cache (4 KiB pages).
	cachePages int
	// remoteDelay is injected in front of every federation request.
	remoteDelay time.Duration
}

// sizesFor returns the recorded sizes of a workload (README.md explains
// each). smoke shrinks everything so the self-test finishes in seconds.
func sizesFor(workload string, smoke bool) sizes {
	if smoke {
		return sizes{politicians: 120, tweets: 600, cachePages: 64, remoteDelay: 200 * time.Microsecond}
	}
	switch workload {
	case wlFederated:
		return sizes{politicians: 1500, tweets: 4000, remoteDelay: time.Millisecond}
	case wlDurable:
		return sizes{politicians: 6000, tweets: 2000, cachePages: 256}
	default:
		return sizes{politicians: 300, tweets: 5000}
	}
}

// remote is one federated source: federation.Handler on its own loopback
// listener behind a fixed delay. While trace is on it also counts requests
// and bytes and times the handler, which is how the federation layer is
// measured from outside.
type remote struct {
	ts    *httptest.Server
	trace atomic.Bool

	requests atomic.Int64
	bytes    atomic.Int64
	delayNs  atomic.Int64
	serveNs  atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func newRemote(src source.DataSource, delay time.Duration) *remote {
	r := &remote{}
	inner := federation.Handler(src)
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.trace.Load() {
			time.Sleep(delay)
			inner.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		time.Sleep(delay)
		t1 := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		inner.ServeHTTP(cw, req)
		r.serveNs.Add(int64(time.Since(t1)))
		r.delayNs.Add(int64(t1.Sub(t0)))
		r.requests.Add(1)
		r.bytes.Add(cw.n + max(req.ContentLength, 0))
	}))
	return r
}

// env is one set-up workload: the dataset, the instance under test, the
// mediator on a loopback listener and what the clients need to drive and
// check it.
type env struct {
	workload string
	sz       sizes
	ds       *datagen.Dataset
	in       *core.Instance
	srv      *server.Server
	ts       *httptest.Server
	plan     workloadPlan
	remotes  []*remote
	calls    *callLog // non-nil when the timing decorator is installed
	dir      string   // durable store directory
	// closedBytes is the size of the store's files (database and WAL) the
	// last time the instance was closed.
	closedBytes int64
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

func (e *env) durableOptions() []core.InstanceOption {
	return []core.InstanceOption{core.WithSaturation(), core.WithStoreOptions(store.Options{
		Pager: pager.Options{CacheSize: e.sz.cachePages},
	})}
}

// serverOptions are the mediator settings of each workload.
func (e *env) serverOptions() server.Options {
	opts := server.Options{Exec: core.ExecOptions{Parallel: true}, Logger: quietLogger}
	if e.workload == wlServeExec || e.workload == wlFederated {
		opts.ResultCacheSize, opts.ProbeCacheSize = -1, -1
	}
	return opts
}

// setUp builds a workload from nothing up to a listening mediator. With
// traced set, every source is wrapped in the timing decorator before
// server.New, so the decorator sits under the probe cache. workDir is where
// durable_mutate keeps its store.
func setUp(workload string, sz sizes, traced bool, workDir string) (e *env, err error) {
	e = &env{workload: workload, sz: sz}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	cfg := datagen.DefaultConfig()
	cfg.NumPoliticians, cfg.NumTweets = sz.politicians, sz.tweets
	if e.ds, err = datagen.Generate(cfg); err != nil {
		return e, err
	}
	switch workload {
	case wlFederated:
		for _, src := range []source.DataSource{
			source.NewDocSource(datagen.TweetsURI, e.ds.Tweets),
			source.NewRelSource(datagen.INSEEURI, e.ds.INSEE),
			source.NewXMLSource(datagen.SpeechesURI, e.ds.Speeches),
		} {
			e.remotes = append(e.remotes, newRemote(src, sz.remoteDelay))
		}
		if e.in, err = federatedInstance(e.ds, e.remotes); err != nil {
			return e, err
		}
	case wlDurable:
		e.dir = filepath.Join(workDir, "store")
		if err := os.RemoveAll(e.dir); err != nil {
			return e, err
		}
		if e.in, _, err = e.ds.PersistentInstance(e.dir, e.durableOptions()...); err != nil {
			return e, err
		}
	default:
		if e.in, err = e.ds.Instance(core.WithSaturation()); err != nil {
			return e, err
		}
	}
	if traced {
		e.calls = &callLog{}
		var wrapErr error
		e.in.Sources().Interpose(func(s source.DataSource) source.DataSource {
			// server.New skips its own interposition on a decorated
			// registry, so the probe cache is installed here, above the
			// timing decorator.
			t, err := timed(s, e.calls)
			if err != nil {
				wrapErr = errors.Join(wrapErr, err)
				return s
			}
			if n := e.serverOptions().ProbeCacheSize; n >= 0 {
				return source.NewCached(t, n)
			}
			return t
		})
		if wrapErr != nil {
			return e, wrapErr
		}
	}
	e.serve()
	e.plan = planFor(workload, e.ds.Politicians)
	return e, nil
}

// federatedInstance is federated_stream's mediator instance: it holds only
// the graph and reaches tweets, INSEE and speeches through federation.Dial.
func federatedInstance(ds *datagen.Dataset, remotes []*remote) (*core.Instance, error) {
	in := core.NewInstance(ds.Graph, core.WithSaturation(), core.WithPrefixes(map[string]string{
		"": datagen.NS, "pol": datagen.NSPol,
	}))
	for _, r := range remotes {
		c, err := federation.Dial(r.ts.URL)
		if err != nil {
			return nil, err
		}
		if err := in.AddSource(c); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// serve puts a new mediator in front of the instance.
func (e *env) serve() {
	e.srv = server.New(e.in, e.serverOptions())
	e.ts = httptest.NewServer(e.srv.Handler())
}

// close stops the listeners and releases the store. Safe on a half-built env
// and when called twice (closing a persistent instance twice is not).
func (e *env) close() {
	if e.ts != nil {
		e.ts.Close()
	}
	if e.in != nil {
		e.in.Close()
	}
	for _, r := range e.remotes {
		r.ts.Close()
	}
	e.ts, e.in, e.remotes = nil, nil, nil
}
