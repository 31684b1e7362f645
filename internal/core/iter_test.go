package core

import (
	"errors"
	"strings"
	"testing"

	"tatooine/internal/value"
)

func mkRows(raw ...[]any) []value.Row {
	var out []value.Row
	for _, r := range raw {
		row := make(value.Row, len(r))
		for i, v := range r {
			switch x := v.(type) {
			case string:
				row[i] = value.NewString(x)
			case int:
				row[i] = value.NewInt(int64(x))
			case float64:
				row[i] = value.NewFloat(x)
			case nil:
				row[i] = value.NewNull()
			default:
				t := value.NewString("?")
				row[i] = t
			}
		}
		out = append(out, row)
	}
	return out
}

// naturalJoin joins two scans on their shared columns, resolved the way
// the planner resolves a chain's joins.
func naturalJoin(left, right Iterator, lcols, rcols []string, budget int64, onSpill func(int64)) *hashJoin {
	j, _ := joinOn(lcols, rcols)
	return newHashJoin(left, right, j, budget, onSpill)
}

func TestScanAndMaterialize(t *testing.T) {
	got, err := Materialize(newScan(mkRows([]any{"x", 1}, []any{"y", 2})))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][1].Int() != 2 {
		t.Errorf("materialize: %+v", got)
	}
}

func TestHashJoinShared(t *testing.T) {
	lcols, rcols := []string{"id", "name"}, []string{"id", "party"}
	left := mkRows([]any{"p1", "Hollande"}, []any{"p2", "Dupont"}, []any{"p3", "Martin"})
	right := mkRows([]any{"p1", "PS"}, []any{"p2", "LR"}, []any{"p2", "UDI"}, []any{"p9", "X"})
	if _, cols := joinOn(lcols, rcols); !equalStrings(cols, []string{"id", "name", "party"}) {
		t.Fatalf("cols: %v", cols)
	}
	got, err := Materialize(naturalJoin(newScan(left), newScan(right), lcols, rcols, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // p1×1, p2×2
		t.Errorf("rows: %d %v", len(got), got)
	}
}

func TestHashJoinMultiColumn(t *testing.T) {
	left := mkRows([]any{"1", "1", "l1"}, []any{"1", "2", "l2"})
	right := mkRows([]any{"1", "1", "r1"}, []any{"2", "2", "r2"})
	got, err := Materialize(naturalJoin(newScan(left), newScan(right),
		[]string{"a", "b", "x"}, []string{"a", "b", "y"}, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][3].Str() != "r1" {
		t.Errorf("multi-col join: %+v", got)
	}
}

func TestHashJoinCrossProduct(t *testing.T) {
	left := mkRows([]any{"x"}, []any{"y"})
	right := mkRows([]any{1}, []any{2}, []any{3})
	got, err := Materialize(naturalJoin(newScan(left), newScan(right), []string{"a"}, []string{"b"}, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Errorf("cross product: %d rows", len(got))
	}
}

func TestHashJoinNullsNeverJoin(t *testing.T) {
	left := mkRows([]any{nil, "ln"}, []any{"a", "la"})
	right := mkRows([]any{nil, "rn"}, []any{"a", "ra"})
	got, err := Materialize(naturalJoin(newScan(left), newScan(right),
		[]string{"k", "l"}, []string{"k", "r"}, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("null join rows: %+v", got)
	}
}

func TestHashJoinCrossNumericKeys(t *testing.T) {
	left := mkRows([]any{1, "int"})
	right := mkRows([]any{1.0, "float"})
	got, err := Materialize(naturalJoin(newScan(left), newScan(right),
		[]string{"k", "l"}, []string{"k", "r"}, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("1 and 1.0 must hash-join: %+v", got)
	}
}

func TestProject(t *testing.T) {
	got, err := Materialize(newProject(newScan(mkRows([]any{"1", "2", "3"})), []int{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Str() != "3" || got[0][1].Str() != "1" {
		t.Errorf("project: %+v", got)
	}
}

func TestDistinct(t *testing.T) {
	got, err := Materialize(newDistinct(newScan(mkRows([]any{"x", 1}, []any{"x", 1}, []any{"x", 2}))))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("distinct: %+v", got)
	}
}

func TestSortAndLimit(t *testing.T) {
	r := mkRows([]any{3, "c"}, []any{1, "a"}, []any{2, "b"})
	got, err := Materialize(newLimit(newSort(newScan(r), 0, true), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0].Int() != 3 || got[1][0].Int() != 2 {
		t.Errorf("sort desc limit: %+v", got)
	}
}

func TestIteratorComposition(t *testing.T) {
	// Join → project → distinct → sort asc → limit pipeline.
	left := mkRows([]any{"a", 3}, []any{"b", 1}, []any{"c", 2})
	right := mkRows([]any{"a"}, []any{"b"}, []any{"c"}, []any{"a"})
	var it Iterator = naturalJoin(newScan(left), newScan(right), []string{"id", "v"}, []string{"id"}, 0, nil)
	it = newProject(it, []int{1})
	it = newDistinct(it)
	it = newSort(it, 0, false)
	it = newLimit(it, 2)
	got, err := Materialize(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0].Int() != 1 || got[1][0].Int() != 2 {
		t.Errorf("pipeline: %+v", got)
	}
}

// closeTrackIterator wraps an iterator, counting Close calls and
// optionally failing them — for pinning Close idempotence and error
// propagation through composed iterators.
type closeTrackIterator struct {
	Iterator
	closes   int
	closeErr error
}

func (c *closeTrackIterator) Close() error {
	c.closes++
	if err := c.Iterator.Close(); err != nil {
		return err
	}
	return c.closeErr
}

func TestScanCloseIdempotent(t *testing.T) {
	s := newScan(mkRows([]any{"x"}, []any{"y"}))
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Next(); !ok {
		t.Fatal("expected a row before Close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, ok, err := s.Next(); ok || err != nil {
		t.Fatalf("Next after Close = ok=%v err=%v, want exhausted", ok, err)
	}
}

func TestHashJoinCloseIdempotentAndPropagates(t *testing.T) {
	left := &closeTrackIterator{
		Iterator: newScan(mkRows([]any{"x"})),
		closeErr: errors.New("left: flush failed"),
	}
	right := &closeTrackIterator{
		Iterator: newScan(mkRows([]any{"x"})),
		closeErr: errors.New("right: flush failed"),
	}
	j := naturalJoin(left, right, []string{"a"}, []string{"a"}, 0, nil)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	err := j.Close()
	if err == nil || !strings.Contains(err.Error(), "left: flush failed") ||
		!strings.Contains(err.Error(), "right: flush failed") {
		t.Fatalf("Close = %v, want both child errors surfaced", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if left.closes != 1 || right.closes != 1 {
		t.Fatalf("children closed %d/%d times, want exactly once", left.closes, right.closes)
	}
}

func TestMaterializeSurfacesCloseError(t *testing.T) {
	it := &closeTrackIterator{
		Iterator: newScan(mkRows([]any{"x"})),
		closeErr: errors.New("close: flush failed"),
	}
	if _, err := Materialize(it); err == nil || !strings.Contains(err.Error(), "flush failed") {
		t.Fatalf("Materialize = %v, want the Close error surfaced", err)
	}
	if it.closes != 1 {
		t.Fatalf("closed %d times, want once", it.closes)
	}
}
