package btree

import (
	"bytes"
	"fmt"
	"testing"
)

func TestCursorAfterMassDelete(t *testing.T) {
	tr, _ := New(residentPager(t))
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 3000; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%06d", i)), val)
	}
	for i := 0; i < 3000; i++ {
		if i%10 == 0 {
			continue
		}
		tr.Delete([]byte(fmt.Sprintf("k%06d", i)))
	}
	c := tr.NewCursor()
	n := 0
	for c.Seek(nil); c.Valid(); c.Next() {
		n++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if n != 300 {
		t.Fatalf("cursor yields %d rows, want 300", n)
	}
}
