package journal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/journal"
	"repro/internal/noiseerr"
	"repro/internal/pathnoise"
)

// Every test here runs over both record types through the same
// generic body: net records, whose binary payloads chain on each other,
// and path-stage records, whose frames are self-contained.

// suite is one record type's codec and four distinct sample records.
type suite[R any] struct {
	codec journal.Codec[R]
	recs  []R
}

func netSuite() suite[clarinet.JournalRecord] {
	var recs []clarinet.JournalRecord
	for i := 0; i < 4; i++ {
		// Shared name prefixes and varying exponents exercise the
		// encoder's cross-record state.
		scale := float64(int64(1) << (10 * i))
		recs = append(recs, clarinet.JournalRecord{
			Net: fmt.Sprintf("net_%04d_m3", i), Quality: "exact",
			Result: &clarinet.JournalResult{
				VictimCeff: 1.25e-13 * scale, VictimRth: 812.5 / scale, TPeak: 1.5e-10,
				QuietCombinedDelay: 2e-10, DelayNoise: 3e-11 * scale,
				NoisyCombinedDelay: 2e-10 + 3e-11*scale, Iterations: i,
			},
		})
	}
	recs[2] = clarinet.JournalRecord{Net: recs[2].Net, Class: "numerical", Error: "nlsim: newton stalled"}
	return suite[clarinet.JournalRecord]{codec: clarinet.RecordCodec, recs: recs}
}

func stageSuite() suite[pathnoise.StageRecord] {
	var recs []pathnoise.StageRecord
	for i := 0; i < 4; i++ {
		recs = append(recs, pathnoise.StageRecord{
			Path: "p0", Stage: i, Net: fmt.Sprintf("p0.s%d", i), Final: i == 3, Done: i == 3,
			Quality: "exact",
			Result: &pathnoise.StageResult{
				InSlewQuiet: 300e-12, InSlewNoisy: 310e-12 + float64(i)*1e-12,
				QuietArr: 451e-12 * float64(i+1), NoisyArr: 472e-12 * float64(i+1),
				StageNoise: 21e-12, Cumulative: 21e-12 * float64(i+1), Iterations: 3,
			},
			QuietOutT: []float64{0, 1e-12, 2e-12}, QuietOutV: []float64{0, 0.9, 1.8},
			NoisyOutT: []float64{0, 1.5e-12, 3e-12}, NoisyOutV: []float64{0, 0.5, 1.8 - float64(i)*0.1},
		})
	}
	return suite[pathnoise.StageRecord]{codec: pathnoise.StageRecordCodec, recs: recs}
}

// both runs a generic test body once per record type.
func both(t *testing.T, net func(*testing.T, suite[clarinet.JournalRecord]), stage func(*testing.T, suite[pathnoise.StageRecord])) {
	t.Run("net", func(t *testing.T) { net(t, netSuite()) })
	t.Run("stage", func(t *testing.T) { stage(t, stageSuite()) })
}

var formats = []journal.Format{journal.Binary, journal.JSONL}

// encode renders recs as one f-encoded stream.
func encode[R any](t *testing.T, f journal.Format, c journal.Codec[R], recs ...R) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf, f, c)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// appendFile opens the log at path in format f, appends recs and
// closes it.
func appendFile[R any](t *testing.T, path string, f journal.Format, c journal.Codec[R], recs ...R) {
	t.Helper()
	l, closeL, err := journal.Open(path, f, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeL(); err != nil {
		t.Fatal(err)
	}
}

// readFile returns the records of the log at path in file order.
func readFile[R any](t *testing.T, path string, c journal.Codec[R]) []R {
	t.Helper()
	var got []R
	if err := journal.ReadFile(path, c, func(rec R) { got = append(got, rec) }); err != nil {
		t.Fatal(err)
	}
	return got
}

func writeRaw(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

// TestFormatByName pins the -journal-format vocabulary, the binary
// default and the first-byte sniff.
func TestFormatByName(t *testing.T) {
	for name, want := range map[string]journal.Format{
		"": journal.Binary, "binary": journal.Binary, "jsonl": journal.JSONL, "json": journal.JSONL,
	} {
		f, err := journal.FormatByName(name)
		if err != nil || f != want {
			t.Fatalf("FormatByName(%q) = %v, %v", name, f, err)
		}
	}
	for _, name := range []string{"protobuf", "msgpack"} {
		if _, err := journal.FormatByName(name); !errors.Is(err, noiseerr.ErrInvalidCase) {
			t.Fatalf("FormatByName(%q) err = %v, want an invalid-case error", name, err)
		}
	}
	var zero journal.Format
	if zero != journal.Binary || zero.String() != "binary" || journal.JSONL.String() != "jsonl" {
		t.Fatal("the zero Format must be the binary default")
	}
	if journal.Sniff(colblob.FrameMagic) != journal.Binary || journal.Sniff('{') != journal.JSONL {
		t.Fatal("sniff misidentified a format")
	}
}

// TestRoundTripAndSniff: whatever one format writes, the sniffing
// reader returns unchanged, with no format hint.
func TestRoundTripAndSniff(t *testing.T) {
	both(t, testRoundTrip[clarinet.JournalRecord], testRoundTrip[pathnoise.StageRecord])
}

func testRoundTrip[R any](t *testing.T, s suite[R]) {
	for _, f := range formats {
		var got []R
		data := encode(t, f, s.codec, s.recs...)
		if err := journal.Read(bytes.NewReader(data), s.codec, func(rec R) { got = append(got, rec) }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s.recs) {
			t.Fatalf("%s: read back %+v, want %+v", f, got, s.recs)
		}
	}
}

// TestOpenTornTailRepair kills a writer mid-record, reopens, appends,
// and demands a clean replay of everything but the torn record: a JSONL
// file gets a separating newline, a binary one is truncated back to its
// last whole frame.
func TestOpenTornTailRepair(t *testing.T) {
	both(t, testOpenTornTail[clarinet.JournalRecord], testOpenTornTail[pathnoise.StageRecord])
}

func testOpenTornTail[R any](t *testing.T, s suite[R]) {
	for _, f := range formats {
		t.Run(f.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.journal")
			appendFile(t, path, f, s.codec, s.recs[0], s.recs[1])
			// The kill: half of the next record reaches the file.
			torn := encode(t, f, s.codec, s.recs[2])
			writeRaw(t, path, torn[:len(torn)/2])

			appendFile(t, path, f, s.codec, s.recs[3])
			got := readFile(t, path, s.codec)
			if want := []R{s.recs[0], s.recs[1], s.recs[3]}; !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %+v, want %+v", got, want)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if journal.Sniff(data[0]) != f {
				t.Fatalf("repaired file no longer sniffs as %s", f)
			}
		})
	}
}

// TestOpenResumeByteIdentical: appending through Open after a torn
// binary tail leaves the same bytes as one uninterrupted writer, so the
// resumed encoder state (replayed from the file) matches the state the
// killed writer had.
func TestOpenResumeByteIdentical(t *testing.T) {
	both(t, testResumeBytes[clarinet.JournalRecord], testResumeBytes[pathnoise.StageRecord])
}

func testResumeBytes[R any](t *testing.T, s suite[R]) {
	path := filepath.Join(t.TempDir(), "run.journal")
	appendFile(t, path, journal.Binary, s.codec, s.recs[0], s.recs[1])
	torn := encode(t, journal.Binary, s.codec, s.recs[2])
	writeRaw(t, path, torn[:len(torn)-3])
	appendFile(t, path, journal.Binary, s.codec, s.recs[2])
	appendFile(t, path, journal.Binary, s.codec, s.recs[3])

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := encode(t, journal.Binary, s.codec, s.recs...); !bytes.Equal(got, want) {
		t.Fatalf("resumed journal is %d bytes, uninterrupted %d; contents differ", len(got), len(want))
	}
}

// TestOpenFormatSticky: an existing journal's format wins over the
// requested one, so a resumed run never interleaves encodings in one
// file.
func TestOpenFormatSticky(t *testing.T) {
	both(t, testFormatSticky[clarinet.JournalRecord], testFormatSticky[pathnoise.StageRecord])
}

func testFormatSticky[R any](t *testing.T, s suite[R]) {
	for _, f := range formats {
		other := journal.JSONL
		if f == journal.JSONL {
			other = journal.Binary
		}
		path := filepath.Join(t.TempDir(), "run.journal")
		appendFile(t, path, f, s.codec, s.recs[0])
		appendFile(t, path, other, s.codec, s.recs[1])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := encode(t, f, s.codec, s.recs[0], s.recs[1]); !bytes.Equal(data, want) {
			t.Fatalf("%s journal reopened as %s: file is not pure %s", f, other, f)
		}
	}
}

// TestOpenMidFileCorruption: a flipped byte mid-file costs the records
// behind it (the frame checksum fails) but never fabricates one, and
// repair-on-open truncates the unusable tail so appends work.
func TestOpenMidFileCorruption(t *testing.T) {
	both(t, testMidFileCorruption[clarinet.JournalRecord], testMidFileCorruption[pathnoise.StageRecord])
}

func testMidFileCorruption[R any](t *testing.T, s suite[R]) {
	path := filepath.Join(t.TempDir(), "run.journal")
	appendFile(t, path, journal.Binary, s.codec, s.recs[:3]...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, path, s.codec)
	if len(got) >= 3 || !reflect.DeepEqual(got, s.recs[:len(got)]) {
		t.Fatalf("corrupt journal replayed %+v", got)
	}
	appendFile(t, path, journal.Binary, s.codec, s.recs[3])
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(len(data)) {
		t.Fatalf("repair left the corrupt tail in place (%d bytes)", st.Size())
	}
	got = readFile(t, path, s.codec)
	if want := append(s.recs[:len(got)-1:len(got)-1], s.recs[3]); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-repair replay %+v, want %+v", got, want)
	}
}

// TestDecodeErrorContract: a frame whose checksum passes but whose
// payload does not decode ends a net stream (records chain, so nothing
// after it can decode) but costs a stage stream only that frame.
// Reading and repair-on-open agree.
func TestDecodeErrorContract(t *testing.T) {
	t.Run("net", func(t *testing.T) {
		s := netSuite()
		testBadPayload(t, s, s.recs[:1], []clarinet.JournalRecord{s.recs[0], s.recs[3]})
	})
	t.Run("stage", func(t *testing.T) {
		s := stageSuite()
		testBadPayload(t, s, s.recs[:2], []pathnoise.StageRecord{s.recs[0], s.recs[1], s.recs[3]})
	})
}

// testBadPayload writes record 0, a bad frame and record 1, expects
// wantRead back, then appends record 3 through Open and expects
// wantAfter.
func testBadPayload[R any](t *testing.T, s suite[R], wantRead, wantAfter []R) {
	path := filepath.Join(t.TempDir(), "run.journal")
	appendFile(t, path, journal.Binary, s.codec, s.recs[0])
	writeRaw(t, path, colblob.AppendFrame(nil, s.codec.Kind, []byte{0xFF}))
	// Record 1 as the writer's own chain would have encoded it.
	head := encode(t, journal.Binary, s.codec, s.recs[0])
	writeRaw(t, path, encode(t, journal.Binary, s.codec, s.recs[0], s.recs[1])[len(head):])
	if got := readFile(t, path, s.codec); !reflect.DeepEqual(got, wantRead) {
		t.Fatalf("read %+v, want %+v", got, wantRead)
	}
	appendFile(t, path, journal.Binary, s.codec, s.recs[3])
	if got := readFile(t, path, s.codec); !reflect.DeepEqual(got, wantAfter) {
		t.Fatalf("after repair and append: %+v, want %+v", got, wantAfter)
	}
}

// TestReadFileMissing: a fresh run resumes from nothing, and an empty
// file holds no records either.
func TestReadFileMissing(t *testing.T) {
	both(t, testReadMissing[clarinet.JournalRecord], testReadMissing[pathnoise.StageRecord])
}

func testReadMissing[R any](t *testing.T, s suite[R]) {
	dir := t.TempDir()
	if got := readFile(t, filepath.Join(dir, "absent"), s.codec); len(got) != 0 {
		t.Fatalf("missing journal read %d records", len(got))
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, empty, s.codec); len(got) != 0 {
		t.Fatalf("empty journal read %d records", len(got))
	}
}

// TestLogConcurrentAppend: pool workers share one log, and the mutex
// keeps both the stream and a chained encoder's state whole, so every
// record reads back.
func TestLogConcurrentAppend(t *testing.T) {
	const workers, each = 4, 25
	for _, f := range formats {
		var buf bytes.Buffer
		l := journal.NewLog(&buf, f, clarinet.RecordCodec)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					rec := clarinet.JournalRecord{Net: fmt.Sprintf("w%d_net%03d", w, i), Quality: "exact",
						Result: &clarinet.JournalResult{DelayNoise: float64(i+1) * 1e-12, Iterations: w}}
					if err := l.Append(rec); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
		seen := map[string]bool{}
		if err := journal.Read(&buf, clarinet.RecordCodec, func(rec clarinet.JournalRecord) { seen[rec.Net] = true }); err != nil {
			t.Fatal(err)
		}
		if len(seen) != workers*each {
			t.Fatalf("%s: read back %d distinct records, want %d", f, len(seen), workers*each)
		}
	}
}

// TestNilLog: a nil log is a valid no-op sink.
func TestNilLog(t *testing.T) {
	var l *journal.Log[clarinet.JournalRecord]
	if err := l.Append(clarinet.JournalRecord{Net: "x"}); err != nil {
		t.Fatal(err)
	}
}
