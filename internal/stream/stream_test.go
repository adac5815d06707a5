package stream

import (
	"strings"
	"testing"

	"streamsum/internal/geom"
)

func TestFromSlice(t *testing.T) {
	pts := []geom.Point{{1}, {2}, {3}}
	src := FromSlice(pts, []int64{10, 20, 30})
	var got []Tuple
	for {
		tu, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, tu)
	}
	if len(got) != 3 || got[1].TS != 20 || got[2].P[0] != 3 {
		t.Fatalf("got %+v", got)
	}
	// nil timestamps default to zero.
	src2 := FromSlice(pts, nil)
	tu, _ := src2.Next()
	if tu.TS != 0 {
		t.Fatal("nil tss should give TS 0")
	}
}

func TestFromCSV(t *testing.T) {
	csvData := "1.5,2.5,100\n3.0,4.0,200\n"
	src := FromCSV(strings.NewReader(csvData), []int{0, 1}, 2)
	t1, ok := src.Next()
	if !ok || !t1.P.Equal(geom.Point{1.5, 2.5}) || t1.TS != 100 {
		t.Fatalf("t1 = %+v ok=%v", t1, ok)
	}
	t2, ok := src.Next()
	if !ok || t2.TS != 200 {
		t.Fatalf("t2 = %+v", t2)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("expected EOF")
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
	// Row number as timestamp.
	src2 := FromCSV(strings.NewReader("5,6\n7,8\n"), []int{0, 1}, -1)
	u1, _ := src2.Next()
	u2, _ := src2.Next()
	if u1.TS != 0 || u2.TS != 1 {
		t.Fatalf("row timestamps %d %d", u1.TS, u2.TS)
	}
}

func TestFromCSVErrors(t *testing.T) {
	// Non-numeric coordinate.
	src := FromCSV(strings.NewReader("a,b\n"), []int{0, 1}, -1)
	if _, ok := src.Next(); ok {
		t.Fatal("bad row accepted")
	}
	if src.Err() == nil {
		t.Fatal("Err not set")
	}
	// Missing column.
	src2 := FromCSV(strings.NewReader("1\n"), []int{0, 1}, -1)
	if _, ok := src2.Next(); ok {
		t.Fatal("short row accepted")
	}
	// Missing ts column.
	src3 := FromCSV(strings.NewReader("1,2\n"), []int{0, 1}, 5)
	if _, ok := src3.Next(); ok {
		t.Fatal("missing ts column accepted")
	}
}
