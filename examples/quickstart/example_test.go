package main

import (
	"bytes"
	"testing"
)

func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const want = `qSIA results:
  tweet=t1 author=fhollande
stats: 2 sub-queries, 1 bind joins, 2 waves

keyword search "head of state" + "SIA2016" generated:
  path:  http://t.example/position(property) -> http://t.example/twitterAccount(property) -> user.screen_name(path) -> tweets(collection) -> entities.hashtags(path)
  query: kq(?s0, ?j0, ?d1) :- qG{q(?s0, ?j0) :- ?s0 <http://t.example/position> <http://t.example/headOfState> . ?s0 <http://t.example/twitterAccount> ?j0}, search{SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id}[<solr://tweets>]
  rows: 1 (first: [http://t.example/pol/POL01140 fhollande t1])
`
	if got := out.String(); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}
