package core

import (
	"fmt"
	"sync"
	"testing"

	"tatooine/internal/rdf"
)

// TestConcurrentMutationAndUnsaturatedQuery is the -race regression
// test for the unsaturated query path: queryGraph hands queries the
// live graph G (no satMu, no snapshot), so AddTriples / RemoveTriples
// running concurrently with query evaluation must be safe — batches
// are applied under one write-lock hold (rdf.Graph.AddBatch /
// RemoveBatch) and readers lock per operation. Run under
// `go test -race` (the CI race job does) to make the guarantee
// meaningful. The two-pattern text makes the BGP evaluator count, match
// and join while the :position triple count moves under it.
func TestConcurrentMutationAndUnsaturatedQuery(t *testing.T) {
	in := mutableInstance(t) // saturation disabled
	queries := []string{
		"QUERY q(?x)\nGRAPH { ?x a :politician }",
		"QUERY q(?x, ?p)\nGRAPH { ?x a :politician . ?x :position ?p }",
	}

	stop := make(chan struct{})
	var mutators sync.WaitGroup

	// Two mutators: one inserting fresh triples, one churning a batch
	// in and out (exercising RemoveTriples against concurrent readers).
	mutators.Add(2)
	go func() {
		defer mutators.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			in.AddTriples(rdf.MustParse(fmt.Sprintf(
				"@prefix : <http://t.example/> .\n:m%d a :politician .", i)))
		}
	}()
	go func() {
		defer mutators.Done()
		churn := rdf.MustParse(`
@prefix : <http://t.example/> .
:churn a :politician ; :position :deputy .
`)
		for {
			select {
			case <-stop:
				return
			default:
			}
			in.AddTriples(churn)
			in.RemoveTriples(churn)
		}
	}()

	// Concurrent queries over the live graph. The seed politician is
	// never touched, so every snapshot a query observes contains it.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				res, err := in.Query(queries[(r+i)%len(queries)])
				if err != nil {
					t.Errorf("query under mutation: %v", err)
					return
				}
				if len(res.Rows) < 1 {
					t.Errorf("query lost the seed politician: %d rows", len(res.Rows))
					return
				}
			}
		}()
	}

	readers.Wait()
	close(stop)
	mutators.Wait()
}

// TestInvalidateRebuildKeepsStableTriplesVisible is the -race test for
// the in-place G∞ rebuild: readers poll triples entailed before and
// after every Invalidate while out-of-band writes make each rebuild
// both add and retract triples. The rebuild adds before it removes, so
// a stable triple is never missing.
func TestInvalidateRebuildKeepsStableTriplesVisible(t *testing.T) {
	in, err := Open(t.TempDir(), WithSaturation())
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t.example/" + s) }
	typ := rdf.NewIRI(rdf.RDFType)
	in.AddTriples([]rdf.Triple{
		{S: iri("A"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: iri("B")},
		{S: iri("x"), P: typ, O: iri("A")},
	})
	stable := []rdf.Triple{{S: iri("x"), P: typ, O: iri("B")}, {S: iri("x"), P: typ, O: iri("A")}}
	flip := rdf.Triple{S: iri("y"), P: typ, O: iri("A")}
	in.queryGraph() // build G∞

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var missing []string
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := in.queryGraph()
				for _, tr := range stable {
					if !g.Contains(tr) {
						mu.Lock()
						missing = append(missing, tr.String())
						mu.Unlock()
					}
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			in.Graph().Add(flip) // out of band: the rebuild must derive :y a :B
		} else {
			in.Graph().Remove(flip) // and then retract it
		}
		in.Invalidate()
		if got, want := in.queryGraph().Contains(rdf.Triple{S: iri("y"), P: typ, O: iri("B")}), i%2 == 0; got != want {
			t.Fatalf("round %d: :y a :B present=%v, want %v", i, got, want)
		}
	}
	close(stop)
	wg.Wait()
	if len(missing) > 0 {
		t.Fatalf("readers saw %d stable triples missing during rebuilds, e.g. %s", len(missing), missing[0])
	}
	if err := in.StoreErr(); err != nil {
		t.Fatal(err)
	}
}
