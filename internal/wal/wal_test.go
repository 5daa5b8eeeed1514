package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mview/internal/obs"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func collect(t *testing.T, path string, from uint64) []Record {
	t.Helper()
	var out []Record
	if err := Replay(path, from, func(r Record) error {
		p := append([]byte(nil), r.Payload...)
		out = append(out, Record{LSN: r.LSN, Kind: r.Kind, Payload: p})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	payloads := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for i, p := range payloads {
		lsn, err := l.Append(uint8(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Errorf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if l.LastLSN() != 4 {
		t.Errorf("LastLSN = %d", l.LastLSN())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs := collect(t, path, 0)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Kind != uint8(i+1) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Errorf("record %d = %+v", i, r)
		}
	}
	// Partial replay.
	recs = collect(t, path, 2)
	if len(recs) != 2 || recs[0].LSN != 3 {
		t.Errorf("from=2 replay = %+v", recs)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	l.Sync = false
	_, _ = l.Append(1, []byte("a"))
	_ = l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Sync = false
	lsn, err := l2.Append(1, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Errorf("continuation lsn = %d, want 2", lsn)
	}
	_ = l2.Close()
}

func TestTornTailTruncated(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	l.Sync = false
	_, _ = l.Append(1, []byte("good"))
	_ = l.Close()

	// Simulate a crash mid-append: garbage tail in the active segment.
	f, err := os.OpenFile(path+".1", os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte{0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0}) // truncated header
	_ = f.Close()

	recs := collect(t, path, 0)
	if len(recs) != 1 {
		t.Fatalf("torn tail not ignored: %+v", recs)
	}
	// Reopening truncates the tail and appends cleanly.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Sync = false
	if lsn, _ := l2.Append(2, []byte("next")); lsn != 2 {
		t.Errorf("post-torn lsn = %d", lsn)
	}
	_ = l2.Close()
	recs = collect(t, path, 0)
	if len(recs) != 2 {
		t.Fatalf("after repair: %+v", recs)
	}
}

// TestTornTailAtEveryOffset simulates a crash at every possible point
// during the last append: the file is truncated to each length between
// the end of the second record and the end of the third (mid-header,
// mid-payload, and mid-CRC tears). Recovery must always stop at the
// last intact record, and a reopened log must continue with the torn
// record's LSN.
func TestTornTailAtEveryOffset(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	for i, p := range [][]byte{[]byte("aaaa"), []byte("bb"), []byte("cccccccc")} {
		if _, err := l.Append(uint8(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	// End of record 2: two records of headerLen + payload + CRC.
	validEnd := 2*(headerLen+crcLen) + len("aaaa") + len("bb")
	if len(full) <= validEnd {
		t.Fatalf("file too short: %d <= %d", len(full), validEnd)
	}
	for cut := validEnd + 1; cut < len(full); cut++ {
		torn := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs := collect(t, torn, 0)
		if len(recs) != 2 || recs[1].LSN != 2 {
			t.Fatalf("cut=%d: replay = %+v, want records 1-2", cut, recs)
		}
		// Reopen discards the tear and reuses the torn record's LSN.
		l2, err := Open(torn)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		l2.Sync = false
		lsn, err := l2.Append(9, []byte("replacement"))
		if err != nil {
			t.Fatalf("cut=%d: append: %v", cut, err)
		}
		if lsn != 3 {
			t.Fatalf("cut=%d: post-tear lsn = %d, want 3", cut, lsn)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		recs = collect(t, torn, 0)
		if len(recs) != 3 || recs[2].LSN != 3 || recs[2].Kind != 9 ||
			!bytes.Equal(recs[2].Payload, []byte("replacement")) {
			t.Fatalf("cut=%d: replay after repair = %+v", cut, recs)
		}
	}
}

func TestCorruptChecksumStopsReplay(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	l.Sync = false
	_, _ = l.Append(1, []byte("aaaa"))
	_, _ = l.Append(1, []byte("bbbb"))
	_ = l.Close()

	// Flip one payload byte of the second record.
	data, _ := os.ReadFile(path + ".1")
	data[len(data)-6] ^= 0xFF
	if err := os.WriteFile(path+".1", data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, path, 0)
	if len(recs) != 1 {
		t.Fatalf("corrupt record replayed: %+v", recs)
	}
}

func TestTruncatePreservesLSNs(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	l.Sync = false
	_, _ = l.Append(1, []byte("a"))
	_, _ = l.Append(1, []byte("b"))
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.Append(1, []byte("c"))
	if lsn != 4 { // 1,2 logged; 3 = continuity marker; 4 = new record
		t.Errorf("post-truncate lsn = %d, want 4", lsn)
	}
	_ = l.Close()
	// Replay sees only the post-truncation record (noop is skipped).
	recs := collect(t, path, 0)
	if len(recs) != 1 || recs[0].LSN != 4 {
		t.Fatalf("replay after truncate = %+v", recs)
	}
	// And reopening continues from 5.
	l2, _ := Open(path)
	l2.Sync = false
	if lsn, _ := l2.Append(1, nil); lsn != 5 {
		t.Errorf("reopen after truncate lsn = %d", lsn)
	}
	_ = l2.Close()
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "nope.log"), 0, func(Record) error {
		t.Fatal("callback on missing file")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendPayloadLimit(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	defer l.Close()
	if _, err := l.Append(1, make([]byte, MaxPayload+1)); err == nil {
		t.Error("oversized payload must fail")
	}
}

// TestCloseFlushesWhenSyncDisabled: with per-append fsync turned off,
// Close must still sync buffered appends before closing, so a clean
// shutdown never loses acknowledged records. Close is idempotent.
func TestCloseFlushesWhenSyncDisabled(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	if _, err := l.Append(1, []byte("unsynced payload")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // second Close is a no-op
		t.Fatal(err)
	}
	recs := collect(t, path, 0)
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, []byte("unsynced payload")) {
		t.Fatalf("records after unsynced Close = %+v", recs)
	}
}

// TestAppendBatchRoundTrip checks the group-commit contract: a batch
// appends consecutive-LSN records that replay as individual records,
// and numbering continues seamlessly across batch and single appends.
func TestAppendBatchRoundTrip(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	first, err := l.AppendBatch([]Entry{
		{Kind: 2, Payload: []byte("g1")},
		{Kind: 3, Payload: nil},
		{Kind: 4, Payload: []byte("g3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Errorf("batch first LSN = %d, want 2", first)
	}
	if l.LastLSN() != 4 {
		t.Errorf("LastLSN = %d, want 4", l.LastLSN())
	}
	if lsn, err := l.Append(5, []byte("after")); err != nil || lsn != 5 {
		t.Errorf("post-batch append = (%d, %v), want (5, nil)", lsn, err)
	}
	_ = l.Close()

	recs := collect(t, path, 0)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Kind != uint8(i+1) {
			t.Errorf("record %d = %+v", i, r)
		}
	}
	if string(recs[1].Payload) != "g1" || string(recs[3].Payload) != "g3" {
		t.Errorf("batch payloads corrupted: %q %q", recs[1].Payload, recs[3].Payload)
	}
}

// TestAppendBatchEmptyAndOversized pins the argument contract.
func TestAppendBatchEmptyAndOversized(t *testing.T) {
	l, err := Open(tempLog(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	big := Entry{Kind: 1, Payload: make([]byte, MaxPayload+1)}
	if _, err := l.AppendBatch([]Entry{big}); err == nil {
		t.Error("oversized payload accepted")
	}
	if l.LastLSN() != 0 {
		t.Errorf("rejected batches advanced the LSN to %d", l.LastLSN())
	}
}

// TestAppendBatchTornAtEveryOffset simulates a crash at every byte
// inside a 3-record batch: recovery must recover a prefix of whole
// records (never a torn one) and a reopened log must append cleanly.
func TestAppendBatchTornAtEveryOffset(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Sync = false
	if _, err := l.Append(1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	preInfo, err := os.Stat(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	preLen := preInfo.Size()
	if _, err := l.AppendBatch([]Entry{
		{Kind: 2, Payload: []byte("alpha")},
		{Kind: 3, Payload: []byte("beta")},
		{Kind: 4, Payload: []byte("gamma")},
	}); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	full, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}

	for cut := preLen; cut <= int64(len(full)); cut++ {
		p2 := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(p2, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs := collect(t, p2, 0)
		if len(recs) < 1 || len(recs) > 4 {
			t.Fatalf("cut %d: %d records recovered", cut, len(recs))
		}
		for i, r := range recs {
			if r.LSN != uint64(i+1) || r.Kind != uint8(i+1) {
				t.Fatalf("cut %d: record %d torn: %+v", cut, i, r)
			}
		}
		l2, err := Open(p2)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		l2.Sync = false
		want := uint64(len(recs) + 1)
		if lsn, _ := l2.Append(9, []byte("resume")); lsn != want {
			t.Fatalf("cut %d: resumed at LSN %d, want %d", cut, lsn, want)
		}
		_ = l2.Close()
	}
}

// TestAppendBatchHookSimulatedCrash pins the fault-injection contract:
// an ErrSimulatedCrash from the hook at "written" aborts with the batch
// bytes still in the file (the process died there) and without
// advancing the LSN.
func TestAppendBatchHookSimulatedCrash(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	AppendHook = func(stage string) error {
		if stage == "written" {
			return ErrSimulatedCrash
		}
		return nil
	}
	defer func() { AppendHook = nil }()
	if _, err := l.AppendBatch([]Entry{{Kind: 1, Payload: []byte("doomed")}}); err != ErrSimulatedCrash {
		t.Fatalf("AppendBatch error = %v, want injected %v", err, ErrSimulatedCrash)
	}
	if l.LastLSN() != 0 {
		t.Errorf("simulated crash advanced LSN to %d", l.LastLSN())
	}
	_ = l.Close()
	// The unsynced, unacknowledged record may or may not survive a real
	// crash; here the bytes are intact, so recovery sees one record —
	// which is fine: it was fully written, never torn.
	if recs := collect(t, path, 0); len(recs) > 1 {
		t.Errorf("recovered %d records from a 1-record torn batch", len(recs))
	}
}

// TestAppendErrorsCounted: every failed append — an injected I/O error
// at either stage, a simulated crash, an oversized payload, a closed
// log — advances mview_wal_append_errors_total, and successful appends
// do not.
func TestAppendErrorsCounted(t *testing.T) {
	l, err := Open(tempLog(t))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.SetObs(reg)
	errs := reg.Counter("mview_wal_append_errors_total", "", nil)
	if _, err := l.Append(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected io failure")
	for _, fail := range []struct {
		stage string
		err   error
	}{{"written", boom}, {"synced", boom}, {"written", ErrSimulatedCrash}} {
		AppendHook = func(s string) error {
			if s == fail.stage {
				return fail.err
			}
			return nil
		}
		_, err := l.AppendBatch([]Entry{{Kind: 1, Payload: []byte("doomed")}, {Kind: 1}})
		AppendHook = nil
		if !errors.Is(err, fail.err) {
			t.Fatalf("%s: AppendBatch error = %v, want %v", fail.stage, err, fail.err)
		}
	}
	if _, err := l.Append(1, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	_ = l.Close()
	if _, err := l.Append(1, []byte("late")); err == nil {
		t.Fatal("append on a closed log succeeded")
	}
	if got := errs.Value(); got != 5 {
		t.Fatalf("mview_wal_append_errors_total = %d, want 5", got)
	}
}
