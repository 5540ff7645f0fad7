package main

import "testing"

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []span{
		// A parent with two adjacent children and a grandchild.
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(40), End: ms(70)},
		{ID: 4, Parent: 2, Name: "a.inner", Start: ms(15), End: ms(25)},
		// A parent whose asynchronous children overlap each other, and one
		// of which is still in flight when the parent returns.
		{ID: 5, Name: "run", Start: ms(200), End: ms(300)},
		{ID: 6, Parent: 5, Name: "get", Start: ms(210), End: ms(250)},
		{ID: 7, Parent: 5, Name: "get", Start: ms(230), End: ms(260)},
		{ID: 8, Parent: 5, Name: "put", Start: ms(290), End: ms(320)},
		// A child wholly inside another child's interval adds nothing.
		{ID: 9, Parent: 5, Name: "get", Start: ms(235), End: ms(240)},
	}
	want := map[int]int64{
		1: ms(100 - 60), // minus a and b; the grandchild is a's, not the op's
		2: ms(30 - 10),
		3: ms(30),
		4: ms(10),
		5: ms(100 - 50 - 10), // the union [210,260] and the clipped [290,300]
		6: ms(40), 7: ms(30), 8: ms(30), 9: ms(5),
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d ns, want %d ns", id, got[id], w)
		}
	}
}

func TestTotalsByOp(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "get", Start: 0, End: 2e6, Bytes: 10},
		{ID: 2, Op: 1, Name: "get", Start: 3e6, End: 4e6, Bytes: 5},
		{ID: 3, Op: 2, Name: "get", Start: 0, End: 7e6, Bytes: 1},
	}
	got := totalsByOp(spans)
	if g := got[1]["get"]; g.calls != 2 || g.bytes != 15 || g.ms != 3 {
		t.Errorf("op 1 get totals = %+v, want 2 calls, 15 bytes, 3 ms", *g)
	}
	if g := got[2]["get"]; g.calls != 1 || g.ms != 7 {
		t.Errorf("op 2 get totals = %+v, want 1 call, 7 ms", *g)
	}
}
