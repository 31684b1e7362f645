package doc

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"tatooine/internal/value"
)

// figure2JSON is the sample tweet from Figure 2 of the paper.
const figure2JSON = `{
  "created_at": "Tue March 01 03:42:31 +0000 2016",
  "id": 464244242167342513,
  "text": "Je suis là aujourd'hui pour montrer qu'il y a une solidarité nationale. En défendant ... #SIA2016",
  "user": {
    "id": 483794260,
    "name": "François Hollande",
    "screen_name": "fhollande",
    "description": "Président de la République française",
    "followers_count": 1502835
  },
  "retweet_count": 469,
  "favorite_count": 883,
  "entities": {"hashtags": ["SIA2016"], "urls": []}
}`

// fromJSON decodes one JSON object into a Document. Numbers become
// int64 when integral, so large IDs survive, and float64 otherwise.
func fromJSON(t *testing.T, data string) *Document {
	t.Helper()
	d := &Document{ID: "x"}
	dec := json.NewDecoder(strings.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&d.Fields); err != nil {
		t.Fatal(err)
	}
	d.Fields = jsonNumbers(d.Fields).(map[string]any)
	return d
}

// jsonNumbers replaces every json.Number under v by an int64 or a
// float64.
func jsonNumbers(v any) any {
	switch x := v.(type) {
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return i
		}
		f, _ := x.Float64()
		return f
	case map[string]any:
		for k, e := range x {
			x[k] = jsonNumbers(e)
		}
	case []any:
		for i, e := range x {
			x[i] = jsonNumbers(e)
		}
	}
	return v
}

func fig2(t *testing.T) *Document { return fromJSON(t, figure2JSON) }

func TestFromJSONFigure2(t *testing.T) {
	d := fig2(t)
	if v := d.Values("user.screen_name"); len(v) != 1 || v[0].Str() != "fhollande" {
		t.Errorf("user.screen_name: %v", v)
	}
	if v := d.Values("user.missing"); len(v) != 0 {
		t.Errorf("missing path resolved to %v", v)
	}
	if v := d.Values("text.sub"); len(v) != 0 {
		t.Errorf("descending into a scalar gave %v", v)
	}
}

func TestValuesScalarsAndArrays(t *testing.T) {
	d := fig2(t)
	vals := d.Values("entities.hashtags")
	if len(vals) != 1 || vals[0].Str() != "SIA2016" {
		t.Errorf("hashtags: %v", vals)
	}
	if vals := d.Values("entities.urls"); len(vals) != 0 {
		t.Errorf("empty array: %v", vals)
	}
	rts := d.Values("retweet_count")
	if len(rts) != 1 || rts[0].Kind() != value.Int || rts[0].Int() != 469 {
		t.Errorf("retweet_count: %v", rts)
	}
	// Large tweet IDs must survive (int64, not float64).
	ids := d.Values("id")
	if ids[0].Int() != 464244242167342513 {
		t.Errorf("id precision lost: %v", ids[0])
	}
}

func TestValuesThroughArrayOfObjects(t *testing.T) {
	d := fromJSON(t, `{"posts": [{"tag": "a"}, {"tag": "b"}, {"other": 1}]}`)
	vals := d.Values("posts.tag")
	if len(vals) != 2 || vals[0].Str() != "a" || vals[1].Str() != "b" {
		t.Errorf("array of objects: %v", vals)
	}
}

func TestSetAndRoundTrip(t *testing.T) {
	d := &Document{ID: "n1"}
	d.Set("user.screen_name", "mlp")
	d.Set("retweet_count", 12)
	d.Set("text", "bonjour")
	if v := d.Values("user.screen_name"); len(v) != 1 || v[0].Str() != "mlp" {
		t.Errorf("set/values: %v", v)
	}
	if v := d.Values("retweet_count"); len(v) != 1 || v[0].Kind() != value.Int || v[0].Int() != 12 {
		t.Errorf("set/values: %v", v)
	}
}

func TestValueCoercionKinds(t *testing.T) {
	d := fromJSON(t, `{"f": 1.5, "i": 3, "b": true, "n": null, "s": "txt"}`)
	if d.Values("f")[0].Kind() != value.Float {
		t.Error("float kind")
	}
	if d.Values("i")[0].Kind() != value.Int {
		t.Error("int kind")
	}
	if d.Values("b")[0].Kind() != value.Bool {
		t.Error("bool kind")
	}
	if !d.Values("n")[0].IsNull() {
		t.Error("null kind")
	}
	if d.Values("s")[0].Kind() != value.String {
		t.Error("string kind")
	}
}

// randomNode builds a random JSON-like tree over the field names a, b
// and c: objects, arrays (empty ones too), nulls, strings, numbers and
// booleans, depth levels deep at most.
func randomNode(rng *rand.Rand, depth int) any {
	switch n := rng.Intn(8); {
	case depth > 0 && n < 3:
		obj := map[string]any{}
		for _, k := range []string{"a", "b", "c"} {
			if rng.Intn(3) > 0 {
				obj[k] = randomNode(rng, depth-1)
			}
		}
		return obj
	case depth > 0 && n < 5:
		arr := make([]any, rng.Intn(4))
		for i := range arr {
			arr[i] = randomNode(rng, depth-1)
		}
		return arr
	case n == 5:
		return nil
	case n == 6:
		return float64(rng.Intn(7)) / 2
	default:
		return []string{"x", "y", "", "true"}[rng.Intn(4)]
	}
}

// TestFirstMatchesValues: over random nested documents and every path
// of up to three steps (missing steps included), First gives what
// Values gives first, and reports nothing exactly when Values is empty.
func TestFirstMatchesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c", "d"}
	var paths []string
	for _, x := range names {
		paths = append(paths, x)
		for _, y := range names {
			paths = append(paths, x+"."+y)
			for _, z := range names {
				paths = append(paths, x+"."+y+"."+z)
			}
		}
	}
	for i := 0; i < 500; i++ {
		fields, ok := randomNode(rng, 4).(map[string]any)
		if !ok {
			fields = map[string]any{"a": randomNode(rng, 3)}
		}
		d := &Document{ID: "d", Fields: fields}
		for _, path := range paths {
			vals := d.Values(path)
			got, found := d.First(strings.Split(path, "."))
			if found != (len(vals) > 0) {
				t.Fatalf("doc %d path %s: First found=%v, Values %v", i, path, found, vals)
			}
			if found && (got.Kind() != vals[0].Kind() || got.Key() != vals[0].Key()) {
				t.Fatalf("doc %d path %s: First = %v, Values[0] = %v", i, path, got, vals[0])
			}
		}
	}
}

// TestFirstAllocatesNothing: projecting a scalar path builds no list.
func TestFirstAllocatesNothing(t *testing.T) {
	d := fig2(t)
	steps := []string{"user", "screen_name"}
	if n := testing.AllocsPerRun(100, func() { d.First(steps) }); n != 0 {
		t.Fatalf("First: %v allocations, want 0", n)
	}
}
