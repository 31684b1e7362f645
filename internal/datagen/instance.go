package datagen

import (
	"fmt"
	"math/rand"

	"tatooine/internal/core"
	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/xmlstore"
)

// Dataset is a fully generated mixed instance's raw material.
type Dataset struct {
	Config      Config
	Politicians []Politician
	Graph       *rdf.Graph
	Tweets      *fulltext.Index
	Facebook    *fulltext.Index
	Speeches    *xmlstore.Store
	INSEE       *relstore.Database
	Regional    map[string]*relstore.Database // uri → db
}

// Source URIs of the assembled instance.
const (
	TweetsURI   = "solr://tweets"
	FacebookURI = "solr://fbposts"
	SpeechesURI = "xml://speeches"
	INSEEURI    = "sql://insee"
)

// RegionalURIs lists the dynamically-discoverable regional databases.
var RegionalURIs = []string{"sql://region-idf", "sql://region-bzh", "sql://region-paca"}

// Generate builds the full dataset under cfg.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Weeks <= 0 {
		cfg.Weeks = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Config: cfg, Regional: make(map[string]*relstore.Database)}
	ds.Politicians = GenPoliticians(rng, cfg.NumPoliticians)
	ds.Graph = BuildGraph(ds.Politicians)
	var err error
	ds.Tweets, err = GenTweets(rng, cfg, ds.Politicians, cfg.NumTweets)
	if err != nil {
		return nil, fmt.Errorf("datagen: tweets: %w", err)
	}
	ds.Facebook, err = GenFacebookPosts(rng, cfg, ds.Politicians, cfg.NumFacebookPosts)
	if err != nil {
		return nil, fmt.Errorf("datagen: facebook: %w", err)
	}
	ds.Speeches, err = GenSpeeches(rng, cfg, ds.Politicians, cfg.NumFacebookPosts/4+1)
	if err != nil {
		return nil, fmt.Errorf("datagen: speeches: %w", err)
	}
	ds.INSEE, err = GenINSEE(rng, cfg, RegionalURIs)
	if err != nil {
		return nil, fmt.Errorf("datagen: insee: %w", err)
	}
	for _, uri := range RegionalURIs {
		db, err := GenRegionalDB(rng, uri)
		if err != nil {
			return nil, fmt.Errorf("datagen: regional: %w", err)
		}
		ds.Regional[uri] = db
	}
	return ds, nil
}

// Instance assembles the mixed instance I = (G, D) from the dataset.
// Extra options (e.g. core.WithSaturation for the serving path) are
// applied on top of the standard prefixes.
func (ds *Dataset) Instance(opts ...core.InstanceOption) (*core.Instance, error) {
	in := core.NewInstance(ds.Graph, ds.instanceOptions(opts)...)
	if err := ds.registerSources(in); err != nil {
		return nil, err
	}
	return in, nil
}

// PersistentInstance assembles the mixed instance on a durable store
// rooted at dir (core.Open). A fresh directory is seeded with the
// generated custom graph; a warm one adopts the stored graph, epoch
// and saturation as-is, skipping the seed entirely. Live external
// sources (full-text indexes, XML store, relational databases) are
// in-process objects either way, so they are (re-)registered on every
// boot; only the custom graph side persists. The returned warm flag
// reports which path was taken.
func (ds *Dataset) PersistentInstance(dir string, opts ...core.InstanceOption) (in *core.Instance, warm bool, err error) {
	in, err = core.Open(dir, ds.instanceOptions(opts)...)
	if err != nil {
		return nil, false, err
	}
	warm = in.Epoch() > 0 || in.Graph().Size() > 0
	if !warm {
		in.AddTriples(ds.Graph.Triples())
	}
	if err := ds.registerSources(in); err != nil {
		in.Close()
		return nil, false, err
	}
	if err := in.StoreErr(); err != nil {
		in.Close()
		return nil, false, err
	}
	return in, warm, nil
}

func (ds *Dataset) instanceOptions(opts []core.InstanceOption) []core.InstanceOption {
	return append([]core.InstanceOption{core.WithPrefixes(map[string]string{
		"":    NS,
		"pol": NSPol,
	})}, opts...)
}

func (ds *Dataset) registerSources(in *core.Instance) error {
	srcs := []source.DataSource{
		source.NewDocSource(TweetsURI, ds.Tweets),
		source.NewDocSource(FacebookURI, ds.Facebook),
		source.NewXMLSource(SpeechesURI, ds.Speeches),
		source.NewRelSource(INSEEURI, ds.INSEE),
	}
	for uri, db := range ds.Regional {
		srcs = append(srcs, source.NewRelSource(uri, db))
	}
	for _, s := range srcs {
		if err := in.AddSource(s); err != nil {
			return err
		}
	}
	return nil
}

// Classifier returns an analytics classifier resolving tweets to
// (party, week) through the politician graph, mirroring the mixed
// query of scenario (2).
func (ds *Dataset) Classifier() func(d *doc.Document) (string, int, bool) {
	byTwitter := make(map[string]string, len(ds.Politicians))
	for _, p := range ds.Politicians {
		byTwitter[p.Twitter] = p.PartyID
	}
	start := ds.Config.Start
	return func(d *doc.Document) (string, int, bool) {
		vals := d.Values("user.screen_name")
		if len(vals) == 0 {
			return "", 0, false
		}
		party, ok := byTwitter[vals[0].Str()]
		if !ok {
			return "", 0, false
		}
		tvals := d.Values("created_at")
		if len(tvals) == 0 {
			return "", 0, false
		}
		ts, okT := parseTime(tvals[0].String())
		if !okT {
			return "", 0, false
		}
		week := int(ts.Sub(start).Hours() / (24 * 7))
		return party, week + 1, true
	}
}

// CurrentOfParty maps party IDs to their current names (for viz
// colouring).
func CurrentOfParty() map[string]string {
	out := make(map[string]string, len(Parties))
	for _, p := range Parties {
		out[p.ID] = string(p.Current)
	}
	return out
}
