package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/doc"
	"tatooine/internal/value"
)

// rowDigest identifies a multiset of result rows independently of their
// order: the row count and the wrapping sum of each row's hash. Parallel bind
// joins deliver rows in varying order, so replies are compared as multisets.
type rowDigest struct {
	n   int
	sum uint64
}

// add folds one row, given as the JSON array the server puts on the wire.
func (d *rowDigest) add(rawRow []byte) {
	h := fnv.New64a()
	h.Write(rawRow)
	d.n++
	d.sum += h.Sum64()
}

func (d *rowDigest) addRow(r value.Row) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	d.add(raw)
	return nil
}

// expectedAnswers returns the digest every reply to each catalogue entry
// must have. e1_* and g_lookup are computed from the generated dataset with
// plain loops, never asking the engine; the other classes are pinned to a
// first cache-free execution on the instance under test.
func expectedAnswers(ds *datagen.Dataset, in *core.Instance, cat []query) ([]rowDigest, error) {
	want := make([]rowDigest, len(cat))

	byScreen := map[string][]datagen.Politician{}
	for _, p := range ds.Politicians {
		byScreen[p.Twitter] = append(byScreen[p.Twitter], p)
	}
	var e1 []int
	for i, q := range cat {
		if q.class == classE1Rare || q.class == classE1Common {
			e1 = append(e1, i)
		}
	}
	var oracleErr error
	ds.Tweets.Each(func(d *doc.Document) bool {
		screens := d.Values("user.screen_name")
		if len(screens) == 0 {
			return true
		}
		tags := map[string]bool{}
		for _, h := range d.Values("entities.hashtags") {
			tags[h.Str()] = true
		}
		row := value.Row{value.NewString(d.ID), screens[0]}
		// One row per (politician, tweet) pair: two politicians sharing a
		// screen name each join with all of its tweets.
		for _, p := range byScreen[screens[0].Str()] {
			for _, i := range e1 {
				if cat[i].position == p.Position && tags[cat[i].hashtag] {
					if oracleErr = want[i].addRow(row); oracleErr != nil {
						return false
					}
				}
			}
		}
		return true
	})
	if oracleErr != nil {
		return nil, oracleErr
	}

	for i, q := range cat {
		switch q.class {
		case classE1Rare, classE1Common:
		case classGLookup:
			p := ds.Politicians[q.politician]
			row := value.Row{value.NewString(p.Name), value.NewString(datagen.NS + "party/" + p.PartyID)}
			if err := want[i].addRow(row); err != nil {
				return nil, err
			}
		default:
			res, err := in.ExecuteContext(context.Background(), core.MustParseCMQ(q.text), core.ExecOptions{Parallel: true})
			if err != nil {
				return nil, fmt.Errorf("pin %s: %w", q.class, err)
			}
			for _, r := range res.Rows {
				if err := want[i].addRow(r); err != nil {
					return nil, err
				}
			}
		}
	}
	return want, nil
}
