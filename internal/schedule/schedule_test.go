package schedule

import (
	"testing"

	"twopcp/internal/grid"
)

func cube(k int) *grid.Pattern { return grid.UniformCube(3, 8*k, k) }

func TestKindString(t *testing.T) {
	want := map[Kind]string{ModeCentric: "MC", FiberOrder: "FO", ZOrder: "ZO", HilbertOrder: "HO"}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"MC", "FO", "ZO", "HO", "hilbert", "zorder", "fiber", "mode-centric"} {
		if _, err := ParseKind(s); err != nil {
			t.Fatalf("ParseKind(%q): %v", s, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind should reject unknown strings")
	}
	if k, _ := ParseKind("HO"); k != HilbertOrder {
		t.Fatal("HO should parse to HilbertOrder")
	}
}

func TestModeCentricCycle(t *testing.T) {
	p := grid.MustNew([]int{8, 8, 8}, []int{2, 4, 2})
	s := New(ModeCentric, p)
	if len(s.Steps) != 8 { // ΣK = 2+4+2
		t.Fatalf("MC steps = %d, want 8", len(s.Steps))
	}
	// Each step: one access, mode-major order.
	if s.Steps[0].Accesses[0] != (Access{0, 0}) || s.Steps[2].Accesses[0] != (Access{1, 0}) {
		t.Fatalf("MC order wrong: %+v", s.Steps)
	}
	for i := range s.Steps {
		if s.Steps[i].Block != nil || s.Steps[i].Updates() != 1 {
			t.Fatal("MC steps must be single-update, blockless")
		}
	}
	if s.UpdatesPerCycle() != 8 {
		t.Fatalf("MC UpdatesPerCycle = %d", s.UpdatesPerCycle())
	}
}

func TestBlockCentricCycles(t *testing.T) {
	p := cube(4) // 4×4×4 blocks
	for _, kind := range []Kind{FiberOrder, ZOrder, HilbertOrder} {
		s := New(kind, p)
		if len(s.Steps) != 64 {
			t.Fatalf("%v: %d steps, want 64", kind, len(s.Steps))
		}
		seen := map[int]bool{}
		for i := range s.Steps {
			st := &s.Steps[i]
			if st.Block == nil || st.Updates() != 3 {
				t.Fatalf("%v: malformed step %+v", kind, st)
			}
			// Accesses must match the block coordinates.
			for m, a := range st.Accesses {
				if a.Mode != m || a.Part != st.Block[m] {
					t.Fatalf("%v: step accesses %+v do not match block %v", kind, st.Accesses, st.Block)
				}
			}
			id := p.Linear(st.Block)
			if seen[id] {
				t.Fatalf("%v: block %v scheduled twice (not tensor-filling)", kind, st.Block)
			}
			seen[id] = true
		}
		if len(seen) != p.NumBlocks() {
			t.Fatalf("%v: cycle covers %d of %d blocks", kind, len(seen), p.NumBlocks())
		}
		if s.UpdatesPerCycle() != 3*64 {
			t.Fatalf("%v: UpdatesPerCycle = %d", kind, s.UpdatesPerCycle())
		}
	}
}

func TestVirtualIterationArithmetic(t *testing.T) {
	p := cube(8) // 8×8×8
	mc := New(ModeCentric, p)
	if mc.VirtualIterationLength() != 24 {
		t.Fatalf("virtual iteration length = %d, want 24", mc.VirtualIterationLength())
	}
	if got := mc.VirtualIterationsPerCycle(); got != 1 {
		t.Fatalf("MC cycle = %g virtual iterations, want 1", got)
	}
	ho := New(HilbertOrder, p)
	// 3·512 updates / 24 per virtual iteration = 64.
	if got := ho.VirtualIterationsPerCycle(); got != 64 {
		t.Fatalf("HO cycle = %g virtual iterations, want 64", got)
	}
}

func TestAccessString(t *testing.T) {
	p := grid.MustNew([]int{4, 4}, []int{2, 2})
	s := New(FiberOrder, p)
	acc := s.AccessString()
	if len(acc) != s.UpdatesPerCycle() {
		t.Fatalf("access string length %d != %d", len(acc), s.UpdatesPerCycle())
	}
	// First block (0,0): accesses (0,0), (1,0).
	if acc[0] != (Access{0, 0}) || acc[1] != (Access{1, 0}) {
		t.Fatalf("access string head = %+v", acc[:2])
	}
}

func TestUnitIDRoundTrip(t *testing.T) {
	p := grid.MustNew([]int{8, 9, 10}, []int{2, 3, 5})
	if NumUnits(p) != 10 {
		t.Fatalf("NumUnits = %d", NumUnits(p))
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		for ki := 0; ki < p.K[i]; ki++ {
			id := UnitID(p, i, ki)
			if id < 0 || id >= 10 || seen[id] {
				t.Fatalf("UnitID(%d,%d) = %d", i, ki, id)
			}
			seen[id] = true
			m, pt := UnitFromID(p, id)
			if m != i || pt != ki {
				t.Fatalf("UnitFromID(%d) = (%d,%d), want (%d,%d)", id, m, pt, i, ki)
			}
		}
	}
}

func TestUnitBytesPaperFormula(t *testing.T) {
	// Paper §VIII-C.1 example: 100K×100K×100K tensor, 8×8×8, F=100.
	// One unit = (10^5/8 ·100 + 64·10^5/8·100)·8 bytes.
	p := grid.UniformCube(3, 100000, 8)
	got := UnitBytes(p, 0, 0, 100)
	want := int64(100000/8*100+64*(100000/8)*100) * 8
	if got != want {
		t.Fatalf("UnitBytes = %d, want %d", got, want)
	}
}

func TestTotalBytesMatchesMemFormula(t *testing.T) {
	// memtotal = Σ_i K_i ((I_i/K_i F) + Π_{j≠i}K_j · I_i/K_i · F) · 8
	p := grid.UniformCube(3, 64, 4)
	rank := 10
	perUnit := int64(64/4*rank+16*(64/4)*rank) * 8
	want := 12 * perUnit // ΣK = 12 units
	if got := TotalBytes(p, rank); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

func TestUnitBytesUnevenSplit(t *testing.T) {
	// 10 rows in 4 partitions: first partitions have 3 rows, later 2.
	p := grid.MustNew([]int{10, 4}, []int{4, 2})
	big := UnitBytes(p, 0, 0, 5)
	small := UnitBytes(p, 0, 3, 5)
	if big <= small {
		t.Fatalf("uneven partition sizes not reflected: %d vs %d", big, small)
	}
}

func TestUnitIDPanics(t *testing.T) {
	p := grid.MustNew([]int{4, 4}, []int{2, 2})
	for name, f := range map[string]func(){
		"mode":  func() { UnitID(p, 2, 0) },
		"part":  func() { UnitID(p, 0, 2) },
		"getid": func() { UnitFromID(p, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Kind(42), grid.MustNew([]int{4}, []int{2}))
}

func TestUpcomingMatchesAccessString(t *testing.T) {
	p := grid.MustNew([]int{8, 8, 8}, []int{2, 2, 2})
	for _, kind := range Kinds {
		s := New(kind, p)
		acc := s.AccessString()
		n := len(acc)
		for _, cursor := range []int{0, 1, n - 1, n, 3*n + 2} {
			got := s.Upcoming(cursor, 5)
			for i, a := range got {
				want := acc[(cursor+i)%n]
				if a != want {
					t.Fatalf("%v Upcoming(%d, 5)[%d] = %v, want %v", kind, cursor, i, a, want)
				}
			}
		}
	}
}

func TestUpcomingClampsToOneCycle(t *testing.T) {
	p := grid.MustNew([]int{4, 4}, []int{2, 2})
	s := New(ModeCentric, p)
	n := s.UpdatesPerCycle()
	if got := s.Upcoming(0, 10*n); len(got) != n {
		t.Fatalf("Upcoming over-long lookahead returned %d accesses, want %d", len(got), n)
	}
	if got := s.Upcoming(0, 0); got != nil {
		t.Fatalf("Upcoming(_, 0) = %v, want nil", got)
	}
}

func TestUpcomingNegativeCursorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(ModeCentric, grid.MustNew([]int{4}, []int{2})).Upcoming(-1, 1)
}
