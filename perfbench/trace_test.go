package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Overlapping children count once: [10,40) ∪ [30,50) = 40.
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},
		// A child running past its parent is clipped: [90,100) = 10.
		{ID: 4, Parent: 1, Start: 90, End: 130},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Start: 15, End: 25},
		{ID: 6, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[uint64]int64{1: 50, 2: 20, 3: 20, 4: 40, 5: 10, 6: 60}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
	// Disjoint and nested children.
	if c := covered(span{Start: 0, End: 100}, []span{{Start: 0, End: 10}, {Start: 20, End: 30}, {Start: 22, End: 25}}); c != 20 {
		t.Errorf("covered = %d, want 20", c)
	}
	if c := covered(span{Start: 50, End: 60}, []span{{Start: 0, End: 10}}); c != 0 {
		t.Errorf("child outside parent covered %d", c)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.add(0, 0, 1, "x", 0, 1); id != 0 || off.now() != 0 || off.newID() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	tr := newTracer()
	root := tr.newID()
	tr.add(0, root, 9, "child", 10, 30)
	tr.add(0, root, 9, "child", 40, 50)
	tr.add(root, 0, 9, "root", 0, 100)
	if got := tr.selfOf("root"); len(got) != 1 || got[0] != 70 {
		t.Errorf("selfOf(root) = %v, want [70]", got)
	}
	if got := tr.perParent("child"); len(got) != 1 || got[0] != 30 {
		t.Errorf("perParent(child) = %v, want [30]", got)
	}
	d := tr.named("child")
	sort.Float64s(d)
	if len(d) != 2 || d[0] != 10 || d[1] != 20 {
		t.Errorf("named(child) = %v", d)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	if err := tr.write(path, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(zr)
	lines := 0
	for sc.Scan() {
		if lines > 0 {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Call != 9 {
				t.Errorf("line %d: %v %+v", lines, err, s)
			}
		}
		lines++
	}
	if lines != 4 {
		t.Errorf("%d lines, want header + 3 spans", lines)
	}
}
