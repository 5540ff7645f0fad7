package runstate

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// commitProbe stands in for a Run's clock and fsync: time moves only when
// the test moves it, and every sync is counted by file name.
type commitProbe struct {
	t     time.Time
	syncs map[string]int
	fail  error // returned by the next sync, once
}

func (p *commitProbe) now() time.Time { return p.t }

// advance moves the clock to where the next save is due to sync.
func (p *commitProbe) advance() { p.t = p.t.Add(commitInterval) }

func (p *commitProbe) fsync(f *os.File) error {
	p.syncs[filepath.Base(f.Name())]++
	err := p.fail
	p.fail = nil
	return err
}

// openProbed opens dir as Open does, on a probe's clock and fsync.
func openProbed(t *testing.T, dir string, resume bool) (*Run, *commitProbe) {
	t.Helper()
	p := &commitProbe{t: time.Unix(1, 0), syncs: make(map[string]int)}
	rs := newRun(dir)
	rs.now, rs.fsync = p.now, p.fsync
	if err := rs.open(testMeta(), 8, resume); err != nil {
		rs.closeFiles()
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs, p
}

func saveBlocks(t *testing.T, rs *Run, ids ...int) {
	t.Helper()
	for _, id := range ids {
		if err := rs.SaveBlock(id, blockFactors(int64(id)), 0.5); err != nil {
			t.Fatal(err)
		}
	}
}

func savePhase2(t *testing.T, rs *Run, steps ...int) {
	t.Helper()
	for _, step := range steps {
		if err := rs.SavePhase2(phase2Sample(step)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommitBatchesBlockLog: Phase 1's records inside one commitInterval
// share one sync, issued when the manifest leaves Phase 1.
func TestCommitBatchesBlockLog(t *testing.T) {
	rs, probe := openProbed(t, t.TempDir(), false)
	for i := 0; i < 64; i++ {
		saveBlocks(t, rs, i%8)
	}
	if n := probe.syncs[logName]; n != 0 {
		t.Fatalf("%d log syncs inside the window, want 0", n)
	}
	if err := rs.BeginPhase2(); err != nil {
		t.Fatal(err)
	}
	if n := probe.syncs[logName]; n != 1 {
		t.Fatalf("%d log syncs after BeginPhase2, want 1", n)
	}
	if err := rs.BeginPhase2(); err != nil || probe.syncs[logName] != 1 {
		t.Fatalf("second BeginPhase2: err=%v, %d log syncs, want 1", err, probe.syncs[logName])
	}
}

// TestCommitDueAfterInterval: a save commitInterval or more after the last
// sync syncs everything pending; one a nanosecond sooner does not.
func TestCommitDueAfterInterval(t *testing.T) {
	rs, probe := openProbed(t, t.TempDir(), false)
	probe.t = probe.t.Add(commitInterval - 1)
	saveBlocks(t, rs, 0)
	savePhase2(t, rs, 1, 2) // slot 0 by rename, then slot 1 in place
	if len(probe.syncs) != 0 {
		t.Fatalf("syncs before the interval: %v", probe.syncs)
	}
	probe.t = probe.t.Add(1)
	saveBlocks(t, rs, 1)
	if probe.syncs[logName] != 1 || probe.syncs[slotName(1)] != 1 {
		t.Fatalf("the save at the interval synced %v, want the log and slot 1 once", probe.syncs)
	}
	saveBlocks(t, rs, 2)
	savePhase2(t, rs, 3)
	probe.advance()
	savePhase2(t, rs, 4)
	if probe.syncs[logName] != 2 || probe.syncs[slotName(0)] != 1 {
		t.Fatalf("after a second interval: %v, want the log twice and slot 0 once", probe.syncs)
	}
}

// TestCloseCommits: Close syncs a dirty log and a dirty slot, and a second
// Close has nothing left to sync.
func TestCloseCommits(t *testing.T) {
	rs, probe := openProbed(t, t.TempDir(), false)
	saveBlocks(t, rs, 0, 1)
	savePhase2(t, rs, 1, 2, 3)
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if probe.syncs[logName] != 1 || probe.syncs[slotName(1)] != 1 || len(probe.syncs) != 2 {
		t.Fatalf("Close synced %v, want the log and slot 1 once", probe.syncs)
	}
	if err := rs.Close(); err != nil || len(probe.syncs) != 2 || probe.syncs[logName] != 1 {
		t.Fatalf("second Close: err=%v, syncs %v", err, probe.syncs)
	}
}

// TestResumedOpenSyncsInherited: a resumed run syncs the log and both
// slots it finds before it writes anything, so the checkpoint it loads
// counts as synced and its first save goes to the other slot.
func TestResumedOpenSyncsInherited(t *testing.T) {
	dir := t.TempDir()
	killed, _ := openProbed(t, dir, false)
	saveBlocks(t, killed, 0)
	savePhase2(t, killed, 1, 2) // step 2 in slot 1, never synced

	rs, probe := openProbed(t, dir, true)
	for _, name := range []string{logName, slotName(0), slotName(1)} {
		if probe.syncs[name] != 1 {
			t.Fatalf("resumed Open synced %v, want each of the three files once", probe.syncs)
		}
	}
	if st, ok, err := rs.LoadPhase2(); err != nil || !ok || st.NextStep != 2 {
		t.Fatalf("LoadPhase2: %+v ok=%v err=%v, want step 2", st, ok, err)
	}
	slot1 := readFile(t, filepath.Join(dir, slotName(1)))
	savePhase2(t, rs, 3)
	if rs.newest != 0 || string(readFile(t, filepath.Join(dir, slotName(1)))) != string(slot1) {
		t.Fatalf("the first save after resume went to slot %d, want 0 with slot 1 untouched", rs.newest)
	}
}

// TestFailedSyncRollsBack: a failed log sync fails the save that issued
// it, drops every record past the synced end from the index, and is not
// retried; a failed slot sync makes the synced slot the newest again, so
// the next save overwrites the slot that failed.
func TestFailedSyncRollsBack(t *testing.T) {
	errDisk := errors.New("disk says no")
	t.Run("log", func(t *testing.T) {
		rs, probe := openProbed(t, t.TempDir(), false)
		saveBlocks(t, rs, 0, 1)
		if err := rs.BeginPhase2(); err != nil {
			t.Fatal(err)
		}
		synced := rs.logEnd
		saveBlocks(t, rs, 2, 3)
		probe.advance()
		probe.fail = errDisk
		if err := rs.SaveBlock(4, blockFactors(4), 0.5); !errors.Is(err, errDisk) {
			t.Fatalf("SaveBlock over a failing sync: %v, want the sync's error", err)
		}
		if rs.logEnd != synced || rs.Phase1Completed() != 2 {
			t.Fatalf("after the failed sync: log ends at %d with %d blocks, want %d with 2", rs.logEnd, rs.Phase1Completed(), synced)
		}
		for id := 2; id <= 4; id++ {
			if _, _, ok, _ := rs.LoadBlock(id); ok {
				t.Fatalf("block %d is still indexed past the synced end", id)
			}
		}
		if err := rs.Close(); err != nil || probe.syncs[logName] != 2 {
			t.Fatalf("Close after the failure: err=%v, %d log syncs, want 2 (no retry)", err, probe.syncs[logName])
		}
	})
	t.Run("slot", func(t *testing.T) {
		dir := t.TempDir()
		rs, probe := openProbed(t, dir, false)
		savePhase2(t, rs, 1, 2)
		probe.advance()
		probe.fail = errDisk
		if err := rs.SavePhase2(phase2Sample(3)); !errors.Is(err, errDisk) {
			t.Fatalf("SavePhase2 over a failing sync: %v, want the sync's error", err)
		}
		if rs.newest != 0 {
			t.Fatalf("newest is slot %d after slot 1's sync failed, want the synced slot 0", rs.newest)
		}
		slot0 := readFile(t, filepath.Join(dir, slotName(0)))
		savePhase2(t, rs, 4)
		if rs.newest != 1 || string(readFile(t, filepath.Join(dir, slotName(0)))) != string(slot0) {
			t.Fatalf("the save after a failed sync went to slot %d, want 1 with slot 0 untouched", rs.newest)
		}
		if err := rs.Close(); err != nil || probe.syncs[slotName(1)] != 2 {
			t.Fatalf("Close: err=%v, slot 1 synced %d times, want 2", err, probe.syncs[slotName(1)])
		}
	})
}

// TestSaveResultCommits: the result is installed only after every pending
// checkpoint is synced.
func TestSaveResultCommits(t *testing.T) {
	rs, probe := openProbed(t, t.TempDir(), false)
	saveBlocks(t, rs, 0)
	savePhase2(t, rs, 1, 2)
	if err := rs.SaveResult(&ResultState{Fit: 0.5}); err != nil {
		t.Fatal(err)
	}
	if probe.syncs[logName] != 1 || probe.syncs[slotName(1)] != 1 {
		t.Fatalf("SaveResult synced %v, want the log and slot 1 once", probe.syncs)
	}
}
