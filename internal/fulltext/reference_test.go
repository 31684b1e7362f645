package fulltext

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"tatooine/internal/doc"
	"tatooine/internal/value"
)

// This file keeps a map-based evaluator of SEARCH statements as the
// reference the differential test and FuzzParseTextQuery compare each
// tuple of TextQuery.ExecuteBatch with. Each condition materializes docID → score by
// scanning; the conjunction intersects by lookup; bounds, ORDER BY keys
// and projection are worked out here again. Per-posting BM25 scores
// come from the same termSet as ExecuteBatch, so the comparison checks how
// scores are combined, bit for bit.

func (ix *Index) refExecute(q *TextQuery, params []value.Value) ([]value.Row, error) {
	if len(params) < q.NumParams {
		return nil, fmt.Errorf("reference: %d parameters, want %d", len(params), q.NumParams)
	}
	ix.rlockSorted()
	defer ix.mu.RUnlock()
	orderBy, sorted := ix.schema[q.OrderBy]
	if q.OrderBy != "" && !sorted {
		return nil, fmt.Errorf("reference: unknown ORDER BY field %q", q.OrderBy)
	}
	acc := make(map[int32]float64, len(ix.docs))
	for i := range ix.docs {
		acc[int32(i)] = 0
	}
	for k, c := range q.Conds {
		v, v2 := c.Val, c.Val2
		if c.Param >= 0 {
			v = params[c.Param]
		}
		if c.Param2 >= 0 {
			v2 = params[c.Param2]
		}
		scores, err := ix.refCond(c, v, v2)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			acc = scores
			continue
		}
		for id := range acc {
			s, ok := scores[id]
			if !ok {
				delete(acc, id)
				continue
			}
			acc[id] += s
		}
	}

	ids := make([]int32, 0, len(acc))
	for id := range acc {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	key := func(id int32) (string, float64) {
		vals := ix.docs[id].Values(q.OrderBy)
		if orderBy == NumericField || orderBy == TimeField {
			for _, v := range vals {
				if f, ok := refBound(v); ok {
					return "", f
				}
			}
			return "", math.Inf(-1)
		}
		if len(vals) == 0 {
			return "", 0
		}
		return Fold(vals[0].String()), 0
	}
	sort.SliceStable(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if !sorted {
			if acc[a] != acc[b] {
				return acc[a] > acc[b]
			}
			return ix.docs[a].ID < ix.docs[b].ID
		}
		sa, fa := key(a)
		sb, fb := key(b)
		if q.Desc {
			sa, fa, sb, fb = sb, fb, sa, fa
		}
		if sa != sb {
			return sa < sb
		}
		return fa < fb
	})
	if q.Limit > 0 && len(ids) > q.Limit {
		ids = ids[:q.Limit]
	}
	rows := make([]value.Row, 0, len(ids))
	for _, id := range ids {
		var row value.Row
		for _, path := range q.Returns {
			vals := ix.docs[id].Values(path)
			switch {
			case path == "_id":
				row = append(row, value.NewString(ix.docs[id].ID))
			case path == "_score":
				row = append(row, value.NewFloat(acc[id]))
			case len(vals) == 0:
				row = append(row, value.NewNull())
			default:
				row = append(row, vals[0])
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (ix *Index) refCond(c Cond, v, v2 value.Value) (map[int32]float64, error) {
	ft, declared := ix.schema[c.Field]
	if !declared {
		return nil, fmt.Errorf("reference: unknown field %q", c.Field)
	}
	numeric := ft == NumericField || ft == TimeField
	switch {
	case c.Op == CondEq && !numeric:
		out := make(map[int32]float64)
		for _, id := range ix.keyword[c.Field][Fold(v.String())] {
			out[id] = 1
		}
		return out, nil
	case c.Op == CondContains:
		return ix.refTerms(c.Field, ix.analyzer.Tokens(v.String())), nil
	case c.Op == CondPhrase:
		return ix.refPhrase(c.Field, ix.analyzer.Tokens(v.String())), nil
	}
	lo, okLo := refBound(v)
	hi, okHi := refBound(v2)
	switch c.Op {
	case CondEq:
		hi, okHi = lo, okLo
	case CondGe:
		hi, okHi = math.Inf(1), true
	case CondLe:
		hi, okHi = lo, okLo
		lo, okLo = math.Inf(-1), true
	}
	out := make(map[int32]float64)
	if !okLo || !okHi {
		return out, nil
	}
	for _, e := range ix.numeric[c.Field] {
		if lo <= e.val && e.val <= hi {
			out[e.docID] = 1
		}
	}
	return out, nil
}

// refBound maps a bound or an ORDER BY value onto the numeric index's
// scale: numbers as is, times as Unix nanoseconds, strings when they
// parse as a time or else a number.
func refBound(v value.Value) (float64, bool) {
	if v.Kind() == value.String {
		if t, ok := value.Coerce(v, value.Time); ok {
			v = t
		} else if f, ok := value.Coerce(v, value.Float); ok {
			v = f
		}
	}
	switch v.Kind() {
	case value.Time:
		return float64(v.Time().UnixNano()), true
	case value.Int, value.Float:
		return v.Float(), true
	}
	return 0, false
}

func (ix *Index) refTerms(field string, terms []string) map[int32]float64 {
	out := make(map[int32]float64)
	if len(terms) == 0 {
		return out
	}
	matchCount := make(map[int32]int)
	for _, term := range terms {
		plist := ix.text[field][term]
		if len(plist) == 0 {
			return map[int32]float64{}
		}
		ts := ix.termSet(field, plist)
		for i, id := range ts.ids {
			out[id] += ts.scores[i]
			matchCount[id]++
		}
	}
	for id, c := range matchCount {
		if c < len(terms) {
			delete(out, id)
		}
	}
	return out
}

func (ix *Index) refPhrase(field string, terms []string) map[int32]float64 {
	out := make(map[int32]float64)
	positionsOf := func(term string, docID int32) []uint32 {
		for _, p := range ix.text[field][term] {
			if p.docID == docID {
				return p.positions
			}
		}
		return nil
	}
	for docID, score := range ix.refTerms(field, terms) {
		for _, start := range positionsOf(terms[0], docID) {
			match := true
			for k := 1; k < len(terms) && match; k++ {
				match = slices.Contains(positionsOf(terms[k], docID), start+uint32(k))
			}
			if match {
				out[docID] = score
				break
			}
		}
	}
	return out
}

// sameRows describes the first difference between two results, scores
// compared bit for bit; "" when they are identical.
func sameRows(got, want []value.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, reference %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d cells, reference %d", i, len(got[i]), len(want[i]))
		}
		for j, g := range got[i] {
			w := want[i][j]
			if g.Kind() != w.Kind() || g.Key() != w.Key() ||
				g.Kind() == value.Float && math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
				return fmt.Sprintf("row %d is %v, reference %v", i, got[i], want[i])
			}
		}
	}
	return ""
}

// Small vocabularies make terms, tags and values collide often, so
// conjunctions, phrases and duplicates all have something to match.
var (
	diffWords = []string{"solidarité", "agriculteurs", "salon", "urgence", "état", "nationale", "débat", "parlement"}
	diffTags  = []string{"SIA2016", "EtatDurgence", "Agriculture", "COP21"}
	diffUsers = []string{"fhollande", "jdupont", "amartin"}
	diffTimes = []string{"2016-03-01T00:00:00Z", "2016-03-02T00:00:00Z", "2016-03-03T12:00:00Z"}
	diffPaths = []string{"text", "user.screen_name", "entities.hashtags", "retweet_count", "created_at"}
)

func randomIndex(r *rand.Rand) *Index {
	ix := NewIndex("tweets", tweetSchema())
	addRandomDocs(r, ix, r.Intn(80))
	return ix
}

// addRandomDocs adds n random documents to ix (which holds under 900),
// their IDs in random order against their doc ids.
func addRandomDocs(r *rand.Rand, ix *Index, n int) {
	for i, end := ix.Count(), ix.Count()+n; i < end; i++ {
		d := &doc.Document{ID: fmt.Sprintf("d%03d", r.Intn(1000)*1000+i)}
		if r.Intn(8) > 0 {
			d.Set("text", randomText(r, 1+r.Intn(10)))
		}
		if r.Intn(8) > 0 {
			d.Set("user.screen_name", diffUsers[r.Intn(len(diffUsers))])
		}
		tags := make([]any, r.Intn(4))
		for k := range tags {
			tags[k] = diffTags[r.Intn(len(diffTags))]
		}
		d.Set("entities.hashtags", tags)
		switch r.Intn(3) {
		case 0:
			d.Set("retweet_count", r.Intn(20))
		case 1:
			d.Set("retweet_count", []any{r.Intn(20), r.Intn(20)})
		}
		if r.Intn(3) > 0 {
			d.Set("created_at", diffTimes[r.Intn(len(diffTimes))])
		}
		if err := ix.Add(d); err != nil {
			panic(err)
		}
	}
}

func randomText(r *rand.Rand, n int) string {
	words := make([]string, n)
	for k := range words {
		words[k] = diffWords[r.Intn(len(diffWords))]
	}
	return strings.Join(words, " ")
}

// randomValue is an operand for field: mostly a value that suits it,
// one in eight a wild one (NULL, a string that is no number, a float, a
// tag).
func randomValue(r *rand.Rand, field string) value.Value {
	switch {
	case r.Intn(8) == 0:
		return []value.Value{value.NewNull(), value.NewString("abc"), value.NewString(diffTags[0]), value.NewFloat(7.5)}[r.Intn(4)]
	case field == "text":
		return value.NewString(randomText(r, r.Intn(3)))
	case field == "user.screen_name":
		return value.NewString(diffUsers[r.Intn(len(diffUsers))])
	case field == "entities.hashtags":
		return value.NewString(diffTags[r.Intn(len(diffTags))])
	case field == "created_at":
		return value.Parse(diffTimes[r.Intn(len(diffTimes))], false)
	default:
		return value.NewInt(int64(r.Intn(22)))
	}
}

// randomOperand is a literal or, while fewer than two are taken, a '?'.
func randomOperand(r *rand.Rand, field string, params *int) string {
	if *params < 2 && r.Intn(3) == 0 {
		*params++
		return "?"
	}
	v := randomValue(r, field)
	switch v.Kind() {
	case value.Null:
		return "'abc'"
	case value.String:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	default:
		return v.String()
	}
}

// randomBatch is 1–8 parameter tuples for q, each '?' drawn as
// randomValue draws an operand of its condition's field.
func randomBatch(r *rand.Rand, q *TextQuery) []value.Row {
	fields := make([]string, q.NumParams)
	for _, c := range q.Conds {
		for _, p := range []int{c.Param, c.Param2} {
			if p >= 0 {
				fields[p] = c.Field
			}
		}
	}
	batch := make([]value.Row, 1+r.Intn(8))
	for t := range batch {
		batch[t] = make(value.Row, len(fields))
		for k, f := range fields {
			batch[t][k] = randomValue(r, f)
		}
	}
	return batch
}

// matchesReference describes the first tuple whose rows ExecuteBatch
// gives otherwise than refExecute (rows, order, scores bit for bit, or
// whether it errs); "" when every tuple agrees. With mustSucceed, an
// error from either side is a difference too, so a statement that
// both reject cannot pass unchecked.
func matchesReference(ix *Index, q *TextQuery, batch []value.Row, mustSucceed bool) string {
	got, err := q.ExecuteBatch(ix, batch)
	for t, params := range batch {
		want, refErr := ix.refExecute(q, params)
		if (err != nil) != (refErr != nil) || mustSucceed && err != nil {
			return fmt.Sprintf("tuple %d %v: ExecuteBatch error %v, reference error %v", t, params, err, refErr)
		}
		if err != nil {
			continue
		}
		if diff := sameRows(got[t], want); diff != "" {
			return fmt.Sprintf("tuple %d %v: %s", t, params, diff)
		}
	}
	if err == nil && len(got) != len(batch) {
		return fmt.Sprintf("%d results for %d tuples", len(got), len(batch))
	}
	return ""
}

// randomStatement is a SEARCH statement over the randomIndex schema:
// 0–3 conditions of every operator, 0–2 parameters, RETURN with _id
// and _score, ORDER BY ASC or DESC, LIMIT.
func randomStatement(r *rand.Rand) string {
	params := 0
	var b strings.Builder
	b.WriteString("SEARCH tweets")
	for k, n := 0, r.Intn(4); k < n; k++ {
		if k == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		op := CondOp(r.Intn(int(CondBetween) + 1))
		field := diffPaths[r.Intn(len(diffPaths))]
		switch op {
		case CondContains, CondPhrase:
			if r.Intn(4) > 0 {
				field = "text"
			}
		case CondGe, CondLe, CondBetween:
			if r.Intn(4) > 0 {
				field = diffPaths[3+r.Intn(2)]
			}
		}
		word := map[CondOp]string{CondEq: "=", CondContains: "CONTAINS", CondPhrase: "PHRASE",
			CondGe: ">=", CondLe: "<=", CondBetween: "BETWEEN"}[op]
		fmt.Fprintf(&b, "%s %s %s", field, word, randomOperand(r, field, &params))
		if op == CondBetween {
			b.WriteString(" AND " + randomOperand(r, field, &params))
		}
	}
	returns := []string{"_id", "_score"}
	for _, p := range diffPaths {
		if r.Intn(3) == 0 {
			returns = append(returns, p)
		}
	}
	r.Shuffle(len(returns), func(i, j int) { returns[i], returns[j] = returns[j], returns[i] })
	b.WriteString(" RETURN " + strings.Join(returns, ", "))
	if r.Intn(3) == 0 {
		b.WriteString(" ORDER BY " + diffPaths[r.Intn(len(diffPaths))])
		b.WriteString([]string{"", " ASC", " DESC"}[r.Intn(3)])
	}
	if r.Intn(3) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", r.Intn(6))
	}
	return b.String()
}

// batchStatements pair fixed conditions with parameterised ones, the
// shapes ExecuteBatch reads the fixed part of once: in a batch of more
// than one tuple a constant-scored fixed part becomes a bitmap, a
// scored one is galloped. Scores must still sum in condition order
// around the fixed conditions.
var batchStatements = []string{
	"SEARCH tweets WHERE entities.hashtags = 'SIA2016' AND user.screen_name = ? RETURN _id, user.screen_name, _score",
	"SEARCH tweets WHERE text CONTAINS 'solidarité' AND user.screen_name = ? RETURN _score, _id, text",
	"SEARCH tweets WHERE text CONTAINS ? AND entities.hashtags = 'SIA2016' AND retweet_count >= 3 RETURN _id, _score",
	"SEARCH tweets WHERE text CONTAINS ? AND text PHRASE ? AND created_at <= 2016-03-02T00:00:00Z RETURN _score, _id",
}

// TestExecuteMatchesReference runs random statements, and the
// batchStatements, over random indexes in random batches of 1–8
// tuples, each tuple compared with refExecute; then adds documents, so
// the columns the statements had built must follow, and runs them
// again. Every statement here is valid, so an error fails the test.
func TestExecuteMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		ix := randomIndex(r)
		texts := slices.Clone(batchStatements)
		for k := 0; k < 30; k++ {
			texts = append(texts, randomStatement(r))
		}
		for pass := 0; pass < 2; pass++ {
			for _, text := range texts {
				q, err := ParseTextQuery(text)
				if err != nil {
					t.Fatalf("round %d: %s: %v", round, text, err)
				}
				if diff := matchesReference(ix, q, randomBatch(r, q), true); diff != "" {
					t.Fatalf("round %d, pass %d: %s: %s", round, pass, text, diff)
				}
			}
			addRandomDocs(r, ix, r.Intn(20))
		}
	}
}
