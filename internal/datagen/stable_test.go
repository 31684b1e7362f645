package datagen

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"tatooine/internal/relstore"
	"tatooine/internal/value"
)

// TestGenINSEEStable pins the relational sources Generate builds under
// DefaultConfig: every table's schema and every row's Key, in Scan
// order, of the INSEE database and the regional databases hash to one
// recorded digest. A change to the loader, the rng draw order or a
// cell's formatting moves it.
func TestGenINSEEStable(t *testing.T) {
	ds, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashDB := func(db *relstore.Database) {
		fmt.Fprintf(h, "db %s\n", db.Name())
		for _, tbl := range db.Tables() {
			fmt.Fprintf(h, "table %+v\n", tbl.Schema())
			tbl.Scan(func(r value.Row) bool {
				fmt.Fprintf(h, "%q\n", r.Key())
				return true
			})
		}
	}
	hashDB(ds.INSEE)
	for _, uri := range RegionalURIs {
		hashDB(ds.Regional[uri])
	}
	const want = "481dd131fc398673e346e6ac357c0736c3849ddfb0cb68d34b0f657645906631"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("relational sources hash %s, want %s", got, want)
	}
}
