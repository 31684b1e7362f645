package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"tatooine/internal/btree"
	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/digest"
	"tatooine/internal/pager"
	"tatooine/internal/rdf"
	"tatooine/internal/reason"
	"tatooine/internal/source"
)

// Scratch probes: private instances of single layers, built at the workload's
// data size, whose public methods are timed directly. They never touch the
// instance under test.

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeParseAndPlan times core.ParseCMQ and Instance.ExplainQuery (which
// plans without executing) over texts, per call.
func probeParseAndPlan(in *core.Instance, texts []string, opts core.ExecOptions, m metricSet) error {
	parsed := make([]*core.CMQ, len(texts))
	start := time.Now()
	for i, t := range texts {
		q, _, err := core.ParseCMQ(t)
		if err != nil {
			return err
		}
		parsed[i] = q
	}
	m["core.parse_us"] = us(time.Since(start)) / float64(len(texts))
	start = time.Now()
	for _, q := range parsed {
		if _, err := in.ExplainQuery(q, opts); err != nil {
			return err
		}
	}
	m["core.plan_us"] = us(time.Since(start)) / float64(len(parsed))
	return nil
}

// probeBGP times rdf.Evaluate on each query's GRAPH atom against the
// instance's base graph: map-backed in memory, B-tree-backed under
// durable_mutate. Graph atoms bypass the source registry, so they cannot be
// interposed; this is how their share of a query is seen from outside.
func probeBGP(in *core.Instance, texts []string, m metricSet) error {
	var bgps []rdf.BGP
	for _, t := range texts {
		q, _, err := core.ParseCMQ(t)
		if err != nil {
			return err
		}
		for _, a := range q.Atoms {
			if a.Kind != core.GraphAtom {
				continue
			}
			bgp, err := rdf.ParseBGP(a.Sub.Text, in.Prefixes())
			if err != nil {
				return err
			}
			bgps = append(bgps, bgp)
		}
	}
	if len(bgps) == 0 {
		return fmt.Errorf("no graph atoms to evaluate")
	}
	g := in.Graph()
	start := time.Now()
	for _, bgp := range bgps {
		if _, err := rdf.Evaluate(g, bgp); err != nil {
			return err
		}
	}
	m["rdf.bgp_ms_per_query"] = ms(time.Since(start)) / float64(len(bgps))
	return nil
}

// probeDigests times digest.ForSource on the tweets and INSEE sources: what
// the first query after a write pays when no probe cache keeps the digest.
func probeDigests(ds *datagen.Dataset, m metricSet) error {
	for name, src := range map[string]source.DataSource{
		"digest.build_ms.fulltext": source.NewDocSource(datagen.TweetsURI, ds.Tweets),
		"digest.build_ms.relstore": source.NewRelSource(datagen.INSEEURI, ds.INSEE),
	} {
		var runs []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := digest.ForSource(src, digest.DefaultBudget()); err != nil {
				return err
			}
			runs = append(runs, ms(time.Since(start)))
		}
		m[name] = median(runs)
	}
	return nil
}

// probeReason times reason.Engine.ApplyInsert on the same three-triple
// batches the workload's writes insert, over a private copy of the graph.
func probeReason(ds *datagen.Dataset, m metricSet) {
	g := ds.Graph.Clone()
	eng := reason.New(g, reason.Config{})
	const n = 200
	var total time.Duration
	for i := 0; i < n; i++ {
		added := g.AddBatch(writeTriples(fmt.Sprintf("SCRATCH%05d", i)))
		start := time.Now()
		eng.ApplyInsert(added)
		total += time.Since(start)
	}
	m["reason.apply_insert_us"] = us(total) / n
}

// probePager times a one-page commit with and without fsync (which splits
// the device's flush from our code) and a checkpoint of an 8 MiB WAL.
func probePager(dir string, m metricSet) error {
	commit := func(name string, noSync bool) (float64, error) {
		pg, err := pager.Open(filepath.Join(dir, name), pager.Options{NoSync: noSync})
		if err != nil {
			return 0, err
		}
		defer pg.Close()
		id, _, err := pg.Allocate()
		if err != nil {
			return 0, err
		}
		if err := pg.Commit(); err != nil {
			return 0, err
		}
		var runs []float64
		for i := 0; i < 50; i++ {
			page, err := pg.Mut(id)
			if err != nil {
				return 0, err
			}
			page[0]++
			start := time.Now()
			if err := pg.Commit(); err != nil {
				return 0, err
			}
			runs = append(runs, us(time.Since(start)))
		}
		return median(runs), nil
	}
	synced, err := commit("commit-sync.db", false)
	if err != nil {
		return err
	}
	unsynced, err := commit("commit-nosync.db", true)
	if err != nil {
		return err
	}
	m["pager.commit_fsync_ms"] = synced / 1000
	m["pager.commit_nosync_us"] = unsynced

	pg, err := pager.Open(filepath.Join(dir, "checkpoint.db"), pager.Options{})
	if err != nil {
		return err
	}
	defer pg.Close()
	const walPages = (8 << 20) / pager.PageSize
	ids := make([]pager.PageID, walPages)
	for i := range ids {
		if ids[i], _, err = pg.Allocate(); err != nil {
			return err
		}
	}
	var runs []float64
	for r := 0; r < 3; r++ {
		for _, id := range ids {
			page, err := pg.Mut(id)
			if err != nil {
				return err
			}
			page[0]++
		}
		if err := pg.Commit(); err != nil {
			return err
		}
		start := time.Now()
		if err := pg.Checkpoint(); err != nil {
			return err
		}
		runs = append(runs, ms(time.Since(start)))
	}
	m["pager.checkpoint_ms"] = median(runs)
	return nil
}

// probeBTree builds a tree of keys sized like the graph's composite keys and
// times inserts, a full scan, and point reads with the page cache holding all
// of the tree and then a quarter of it.
func probeBTree(dir string, keys int, m metricSet) error {
	path := filepath.Join(dir, "btree.db")
	key := func(i int) []byte {
		k := make([]byte, 12)
		binary.BigEndian.PutUint64(k, uint64(i)*2654435761) // scattered, so inserts split all over the tree
		binary.BigEndian.PutUint32(k[8:], uint32(i))
		return k
	}
	gets := func(t *btree.BTree) (float64, error) {
		rng := rand.New(rand.NewSource(1))
		const lookups = 20000
		start := time.Now()
		for i := 0; i < lookups; i++ {
			if _, ok, err := t.Get(key(rng.Intn(keys))); err != nil || !ok {
				return 0, fmt.Errorf("btree get: found=%v err=%v", ok, err)
			}
		}
		return us(time.Since(start)) / lookups, nil
	}

	// With everything cached: build, scan, read.
	var root pager.PageID
	var pages int
	build := func(pg *pager.Pager) error {
		t, err := btree.New(pg)
		if err != nil {
			return err
		}
		val := make([]byte, 16)
		start := time.Now()
		for i := 0; i < keys; i++ {
			if _, err := t.Insert(key(i), val); err != nil {
				return err
			}
			if i%1000 == 999 || i == keys-1 {
				if err := pg.Commit(); err != nil {
					return err
				}
			}
		}
		m["btree.insert_us"] = us(time.Since(start)) / float64(keys)

		start = time.Now()
		n := 0
		c := t.NewCursor()
		for c.Seek([]byte{0}); c.Valid(); c.Next() {
			n++
		}
		if err := c.Err(); err != nil || n != keys {
			return fmt.Errorf("btree scan saw %d of %d keys: %v", n, keys, err)
		}
		m["btree.scan_us_per_1k_keys"] = us(time.Since(start)) / float64(keys) * 1000

		if m["btree.get_hit_us"], err = gets(t); err != nil {
			return err
		}
		root, pages = t.Root(), pg.PageCount()
		return nil
	}
	pg, err := pager.Open(path, pager.Options{CacheSize: -1, NoSync: true})
	if err != nil {
		return err
	}
	err = build(pg)
	// Close checkpoints the WAL into the file the second pager reads.
	if cerr := pg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	small, err := pager.Open(path, pager.Options{CacheSize: max(pages/4, 8), NoSync: true})
	if err != nil {
		return err
	}
	defer small.Close()
	m["btree.get_miss_us"], err = gets(btree.Open(small, root))
	return err
}
