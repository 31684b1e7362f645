package core

import (
	"errors"
	"strings"
	"testing"

	"tatooine/internal/value"
)

func rel(cols []string, rows ...[]any) *Relation {
	r := &Relation{Cols: cols}
	for _, raw := range rows {
		row := make(value.Row, len(raw))
		for i, v := range raw {
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
		r.Rows = append(r.Rows, row)
	}
	return r
}

func TestScanAndMaterialize(t *testing.T) {
	r := rel([]string{"a", "b"}, []any{"x", 1}, []any{"y", 2})
	got, err := Materialize(NewScan(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Cols[1] != "b" {
		t.Errorf("materialize: %+v", got)
	}
}

func TestHashJoinShared(t *testing.T) {
	left := rel([]string{"id", "name"},
		[]any{"p1", "Hollande"}, []any{"p2", "Dupont"}, []any{"p3", "Martin"})
	right := rel([]string{"id", "party"},
		[]any{"p1", "PS"}, []any{"p2", "LR"}, []any{"p2", "UDI"}, []any{"p9", "X"})
	got, err := Materialize(NewHashJoin(NewScan(left), NewScan(right)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 3 {
		t.Fatalf("cols: %v", got.Cols)
	}
	if len(got.Rows) != 3 { // p1×1, p2×2
		t.Errorf("rows: %d %v", len(got.Rows), got.Rows)
	}
}

func TestHashJoinMultiColumn(t *testing.T) {
	left := rel([]string{"a", "b", "x"}, []any{"1", "1", "l1"}, []any{"1", "2", "l2"})
	right := rel([]string{"a", "b", "y"}, []any{"1", "1", "r1"}, []any{"2", "2", "r2"})
	got, err := Materialize(NewHashJoin(NewScan(left), NewScan(right)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][3].Str() != "r1" {
		t.Errorf("multi-col join: %+v", got.Rows)
	}
}

func TestHashJoinCrossProduct(t *testing.T) {
	left := rel([]string{"a"}, []any{"x"}, []any{"y"})
	right := rel([]string{"b"}, []any{1}, []any{2}, []any{3})
	got, err := Materialize(NewHashJoin(NewScan(left), NewScan(right)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 6 {
		t.Errorf("cross product: %d rows", len(got.Rows))
	}
}

func TestHashJoinNullsNeverJoin(t *testing.T) {
	left := rel([]string{"k", "l"}, []any{nil, "ln"}, []any{"a", "la"})
	right := rel([]string{"k", "r"}, []any{nil, "rn"}, []any{"a", "ra"})
	got, err := Materialize(NewHashJoin(NewScan(left), NewScan(right)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 {
		t.Errorf("null join rows: %+v", got.Rows)
	}
}

func TestHashJoinCrossNumericKeys(t *testing.T) {
	left := rel([]string{"k", "l"}, []any{1, "int"})
	right := rel([]string{"k", "r"}, []any{1.0, "float"})
	got, err := Materialize(NewHashJoin(NewScan(left), NewScan(right)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 {
		t.Errorf("1 and 1.0 must hash-join: %+v", got.Rows)
	}
}

func TestProject(t *testing.T) {
	r := rel([]string{"a", "b", "c"}, []any{"1", "2", "3"})
	got, err := Materialize(NewProject(NewScan(r), []string{"c", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].Str() != "3" || got.Rows[0][1].Str() != "1" {
		t.Errorf("project: %+v", got.Rows)
	}
	if _, err := Materialize(NewProject(NewScan(r), []string{"zz"})); err == nil {
		t.Error("projecting missing column should fail")
	}
}

func TestDistinct(t *testing.T) {
	r := rel([]string{"a", "b"}, []any{"x", 1}, []any{"x", 1}, []any{"x", 2})
	got, err := Materialize(NewDistinct(NewScan(r)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 {
		t.Errorf("distinct: %+v", got.Rows)
	}
}

func TestSortAndLimit(t *testing.T) {
	r := rel([]string{"n", "s"}, []any{3, "c"}, []any{1, "a"}, []any{2, "b"})
	got, err := Materialize(NewLimit(NewSort(NewScan(r), "n", true), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[0][0].Int() != 3 || got.Rows[1][0].Int() != 2 {
		t.Errorf("sort desc limit: %+v", got.Rows)
	}
	if _, err := Materialize(NewSort(NewScan(r), "zz", false)); err == nil {
		t.Error("sorting by missing column should fail")
	}
}

func TestIteratorComposition(t *testing.T) {
	// Join → project → distinct → sort asc → limit pipeline.
	left := rel([]string{"id", "v"}, []any{"a", 3}, []any{"b", 1}, []any{"c", 2})
	right := rel([]string{"id"}, []any{"a"}, []any{"b"}, []any{"c"}, []any{"a"})
	var it Iterator = NewHashJoin(NewScan(left), NewScan(right))
	it = NewProject(it, []string{"v"})
	it = NewDistinct(it)
	it = NewSort(it, "v", false)
	it = NewLimit(it, 2)
	got, err := Materialize(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[0][0].Int() != 1 || got.Rows[1][0].Int() != 2 {
		t.Errorf("pipeline: %+v", got.Rows)
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
	s := NewScan(rel([]string{"a"}, []any{"x"}, []any{"y"}))
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
		Iterator: NewScan(rel([]string{"a"}, []any{"x"})),
		closeErr: errors.New("left: flush failed"),
	}
	right := &closeTrackIterator{
		Iterator: NewScan(rel([]string{"a"}, []any{"x"})),
		closeErr: errors.New("right: flush failed"),
	}
	j := NewHashJoin(left, right)
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
		Iterator: NewScan(rel([]string{"a"}, []any{"x"})),
		closeErr: errors.New("close: flush failed"),
	}
	if _, err := Materialize(it); err == nil || !strings.Contains(err.Error(), "flush failed") {
		t.Fatalf("Materialize = %v, want the Close error surfaced", err)
	}
	if it.closes != 1 {
		t.Fatalf("closed %d times, want once", it.closes)
	}
}
