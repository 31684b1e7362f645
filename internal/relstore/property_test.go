package relstore

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"tatooine/internal/value"
)

// likeToRegexp compiles a SQL LIKE pattern to an anchored regexp; the
// reference implementation for the property test.
func likeToRegexp(pattern string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString(`^(?s)`)
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(`.*`)
		case '_':
			b.WriteString(`.`)
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString(`$`)
	return regexp.MustCompile(b.String())
}

// Property: likeMatch agrees with the regexp semantics of LIKE on
// random ASCII inputs and patterns.
func TestLikeMatchAgainstRegexpProperty(t *testing.T) {
	alphabet := "ab%_c"
	gen := func(rng *rand.Rand, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := strings.ReplaceAll(strings.ReplaceAll(gen(rng, rng.Intn(8)), "%", "x"), "_", "y")
		p := gen(rng, rng.Intn(6))
		want := likeToRegexp(p).MatchString(s)
		got := likeMatch(s, p)
		if got != want {
			t.Logf("s=%q p=%q got=%v want=%v", s, p, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: SELECT with ORDER BY returns rows sorted by that column,
// for random data.
func TestOrderByProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase("p")
		tbl := loadTable(t, db, Schema{Name: "t", Columns: []Column{{Name: "k", Type: value.Int}, {Name: "s", Type: value.String}}})
		rows := int(n%50) + 1
		for i := 0; i < rows; i++ {
			if err := tbl.Insert(value.Row{value.NewInt(int64(rng.Intn(100))), value.NewString(fmt.Sprintf("r%d", i))}); err != nil {
				return false
			}
		}
		res, err := exec(db, "SELECT k FROM t ORDER BY k")
		if err != nil || len(res.Rows) != rows {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][0].Int() > res.Rows[i][0].Int() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: hash-join and nested-loop join (forced via a non-equi
// wrapper predicate that is always true) agree.
func TestJoinStrategiesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase("p")
		a := loadTable(t, db, Schema{Name: "a", Columns: []Column{{Name: "k", Type: value.Int}, {Name: "x", Type: value.String}}})
		b := loadTable(t, db, Schema{Name: "b", Columns: []Column{{Name: "k", Type: value.Int}, {Name: "y", Type: value.String}}})
		for i := 0; i < 20; i++ {
			a.Insert(value.Row{value.NewInt(int64(rng.Intn(6))), value.NewString(fmt.Sprintf("a%d", i))})
			b.Insert(value.Row{value.NewInt(int64(rng.Intn(6))), value.NewString(fmt.Sprintf("b%d", i))})
		}
		hash, err := exec(db, "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k ORDER BY x, y")
		if err != nil {
			return false
		}
		// The +0 arithmetic defeats equi-join detection → nested loop.
		loop, err := exec(db, "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k + 0 ORDER BY x, y")
		if err != nil {
			return false
		}
		if len(hash.Rows) != len(loop.Rows) {
			return false
		}
		for i := range hash.Rows {
			for j := range hash.Rows[i] {
				if !value.Equal(hash.Rows[i][j], loop.Rows[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
