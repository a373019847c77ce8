package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"anex/internal/failpoint"
)

func csvPayload(i int) []byte {
	return []byte(fmt.Sprintf("a,b\n%d,%d\n%d,%d\n", i, i+1, i+2, i+3))
}

// reg appends a register record or fails the test.
func reg(t *testing.T, s *Store, name string, i int) {
	t.Helper()
	if err := s.AppendRegister(name, true, csvPayload(i)); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
}

// liveMap converts recovered records to a comparable map.
func liveMap(recs []Record) map[string]string {
	m := make(map[string]string, len(recs))
	for _, r := range recs {
		m[r.Name] = fmt.Sprintf("h=%v csv=%s", r.Header, r.CSV)
	}
	return m
}

func TestRecordRoundTrip(t *testing.T) {
	in := []Record{
		{Op: OpRegister, Name: "a", Header: true, CSV: []byte("x,y\n1,2\n")},
		{Op: OpForget, Name: "a"},
		{Op: OpRegister, Name: "bétâ", Header: false, CSV: []byte{0, 1, 2, 255}},
	}
	var buf []byte
	for _, rec := range in {
		var err error
		if buf, err = AppendRecord(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	out, goodEnd := DecodeRecords(buf)
	if goodEnd != len(buf) {
		t.Fatalf("goodEnd = %d, want %d", goodEnd, len(buf))
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Op != in[i].Op || out[i].Name != in[i].Name ||
			out[i].Header != in[i].Header || !bytes.Equal(out[i].CSV, in[i].CSV) {
			t.Errorf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestAppendRecordRejectsUnencodable(t *testing.T) {
	cases := []Record{
		{Op: OpRegister, Name: "", CSV: []byte("x")},
		{Op: OpRegister, Name: "a"},
		{Op: Op(9), Name: "a"},
	}
	for _, rec := range cases {
		if _, err := AppendRecord(nil, rec); err == nil {
			t.Errorf("AppendRecord(%+v) accepted, want error", rec)
		}
	}
}

func TestOpenRecoversRegisterReplaceForget(t *testing.T) {
	dir := t.TempDir()
	s, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d records, want 0", len(recovered))
	}
	reg(t, s, "a", 1)
	reg(t, s, "b", 2)
	reg(t, s, "a", 3) // replace
	reg(t, s, "c", 4)
	if err := s.AppendForget("b"); err != nil {
		t.Fatal(err)
	}
	want := liveMap(s.Live())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, recovered2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := liveMap(recovered2)
	if len(got) != 2 || got["a"] != want["a"] || got["c"] != want["c"] {
		t.Errorf("recovered %v, want %v", got, want)
	}
	if replaced := got["a"]; replaced != fmt.Sprintf("h=%v csv=%s", true, csvPayload(3)) {
		t.Errorf("replace lost: a = %q", replaced)
	}
	st := s2.Stats()
	if st.RecoveredWAL != 5 || st.LiveDatasets != 2 {
		t.Errorf("stats = %+v, want RecoveredWAL 5, LiveDatasets 2", st)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg(t, s, "a", 1)
	reg(t, s, "b", 2)
	s.Close()

	// Simulate a crash mid-append: a valid frame prefix plus garbage.
	walPath := filepath.Join(dir, walName)
	frame, err := AppendRecord(nil, Record{Op: OpRegister, Name: "torn", Header: true, CSV: csvPayload(9)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tornSize := int64(len(frame) - 3)

	s2, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d datasets, want 2 (torn record dropped)", len(recovered))
	}
	if st := s2.Stats(); st.TornBytesDropped != tornSize {
		t.Errorf("TornBytesDropped = %d, want %d", st.TornBytesDropped, tornSize)
	}
	// The tail must be physically gone so later appends extend a clean log.
	reg(t, s2, "c", 3)
	s2.Close()
	s3, recovered3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := liveMap(recovered3); len(got) != 3 || got["torn"] != "" {
		t.Errorf("after truncate+append, recovered %v, want a,b,c", got)
	}
}

func TestCompactionPreservesStateAndShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenWith(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		reg(t, s, fmt.Sprintf("d%d", i%3), i) // lots of replaces
	}
	if err := s.AppendForget("d1"); err != nil {
		t.Fatal(err)
	}
	want := liveMap(s.Live())
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 11 appends with CompactEvery=4: %+v", st)
	}
	if st.WALRecords >= 4 {
		t.Errorf("WALRecords = %d after compaction, want < 4", st.WALRecords)
	}
	s.Close()

	s2, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := liveMap(recovered)
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("recovered[%s] = %q, want %q", k, got[k], v)
		}
	}
	if st2 := s2.Stats(); st2.RecoveredSnapshot == 0 {
		t.Errorf("recovery loaded nothing from the snapshot: %+v", st2)
	}
}

func TestStaleSnapshotTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg(t, s, "a", 1)
	s.Close()
	// A compaction that died before rename leaves snapshot.tmp behind.
	if err := os.WriteFile(filepath.Join(dir, snapTmp), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(recovered) != 1 || recovered[0].Name != "a" {
		t.Errorf("recovered %v, want just a", liveMap(recovered))
	}
	if _, err := os.Stat(filepath.Join(dir, snapTmp)); !os.IsNotExist(err) {
		t.Error("stale snapshot.tmp not removed by recovery")
	}
}

func TestCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenWith(dir, Options{CompactEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg(t, s, "a", 1) // triggers compaction → snapshot exists
	s.Close()
	snapPath := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a corrupt snapshot, want error")
	}
}

func TestLockRefusesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		s.Close()
		t.Fatal("second Open on a locked dir succeeded, want error")
	}
	s.Close()
	s2, _, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

func TestFailStopAfterInjectedFault(t *testing.T) {
	t.Parallel()
	faults, err := failpoint.Parse(SiteWALSync + "=error@2")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, _, err := OpenWith(dir, Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg(t, s, "a", 1) // the set's first WAL sync: the fault fires on the second
	err = s.AppendRegister("b", true, csvPayload(2))
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("append under fault = %v, want ErrInjected", err)
	}
	// The one-shot fault has passed, but the store must stay read-only.
	err = s.AppendRegister("c", true, csvPayload(3))
	if err == nil || !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("append after fail-stop = %v, want wrapped first cause", err)
	}
	if s.Failed() == nil {
		t.Error("Failed() nil after injected fault")
	}
	if st := s.Stats(); st.Failed == "" {
		t.Error("Stats().Failed empty after injected fault")
	}
}
