// Package journal is the append-only record log behind every
// checkpoint in the repository: the batch journal of per-net outcomes
// (clarinet.JournalRecord) and the stage journal of path runs
// (pathnoise.StageRecord). It is generic over the record type and owns
// everything the two have in common:
//
//   - the two formats, binary colblob frames (the default) and JSONL
//     (the readable debug view), chosen by name or sniffed from a
//     stream's first byte;
//   - the writers and readers of both formats;
//   - a mutex-guarded, nil-safe Log that a pool of workers appends to;
//   - Open, which keeps an existing file's format and repairs the torn
//     tail a killed writer leaves behind;
//   - Read, the one loop that skips bad records and stops at a torn
//     tail.
//
// A record type supplies only its binary payload codec (Codec). JSONL
// is encoding/json of the record itself, which round-trips float64
// exactly, so a resumed report renders byte-identically in either
// format.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/colblob"
	"repro/internal/noiseerr"
)

// Format is a journal encoding. The zero value is the binary default.
type Format uint8

const (
	// Binary is one colblob frame per record.
	Binary Format = iota
	// JSONL is one JSON object per line.
	JSONL
)

// String returns the format's flag name.
func (f Format) String() string {
	if f == JSONL {
		return "jsonl"
	}
	return "binary"
}

// FormatByName resolves a -journal-format flag value. Empty means the
// binary default.
func FormatByName(name string) (Format, error) {
	switch name {
	case "", "binary":
		return Binary, nil
	case "jsonl", "json":
		return JSONL, nil
	default:
		return Binary, noiseerr.Invalidf("journal: unknown journal format %q (want binary or jsonl)", name)
	}
}

// Sniff identifies a stream's format from its first byte: binary
// frames open with colblob.FrameMagic (0xCB, outside ASCII), JSONL
// lines with '{'.
func Sniff(first byte) Format {
	if first == colblob.FrameMagic {
		return Binary
	}
	return JSONL
}

// maxLine caps one JSONL record. Stage records carry waveform series,
// so the cap sits far above a net record's size.
const maxLine = 16 << 20

// ErrBadRecord marks one undecodable record in an otherwise readable
// stream; Read skips it and goes on.
var ErrBadRecord = errors.New("journal: bad record")

// Codec is a record type's binary encoding: the colblob frame kind its
// records travel in, and per-stream payload encoders and decoders. An
// encoder may carry state from one record to the next (prefix or
// exponent compression); its decoder must evolve the same state in
// lockstep, since Open resumes an encoder by re-encoding every record
// it decoded from the file.
//
// Decoder errors follow one contract: an error that satisfies
// colblob.Corrupt is terminal (a chained stream cannot resynchronize
// past it), any other error skips the one record.
type Codec[R any] struct {
	// Kind is the colblob frame kind of R's records. Readers skip
	// frames of other kinds.
	Kind byte
	// NewEncoder starts one stream's encoder, which appends rec's
	// payload (unframed) to dst.
	NewEncoder func() func(dst []byte, rec R) []byte
	// NewDecoder starts one stream's decoder.
	NewDecoder func() func(payload []byte) (R, error)
}

// Writer appends records to one encoded stream. Writers are not safe
// for concurrent use (Log adds the mutex), and a binary writer must
// serve one stream from its start.
type Writer[R any] interface {
	Write(rec R) error
}

// Reader iterates one encoded stream. Next returns io.EOF at a clean
// end, an error wrapping ErrBadRecord for a record to skip, and a
// colblob.Corrupt error at a torn tail, after which the reader is
// exhausted.
type Reader[R any] interface {
	Next() (R, error)
}

// NewWriter starts an f-encoded record stream on w.
func NewWriter[R any](w io.Writer, f Format, c Codec[R]) Writer[R] {
	if f == JSONL {
		return &jsonlWriter[R]{w: w}
	}
	return &frameWriter[R]{w: w, kind: c.Kind, enc: c.NewEncoder()}
}

// NewReader decodes an f-encoded record stream from r.
func NewReader[R any](r io.Reader, f Format, c Codec[R]) Reader[R] {
	if f == JSONL {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), maxLine)
		return &jsonlReader[R]{sc: sc}
	}
	return &frameReader[R]{fr: colblob.NewFrameReader(r), kind: c.Kind, dec: c.NewDecoder()}
}

type jsonlWriter[R any] struct {
	w   io.Writer
	buf []byte
}

func (jw *jsonlWriter[R]) Write(rec R) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	jw.buf = append(append(jw.buf[:0], line...), '\n')
	_, err = jw.w.Write(jw.buf)
	return err
}

type jsonlReader[R any] struct{ sc *bufio.Scanner }

func (jr *jsonlReader[R]) Next() (R, error) {
	var rec R
	for jr.sc.Scan() {
		line := jr.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			// A malformed line, the torn final line of a killed run
			// included, is skippable.
			return rec, fmt.Errorf("%w: %w", ErrBadRecord, err)
		}
		return rec, nil
	}
	if err := jr.sc.Err(); err != nil {
		return rec, err
	}
	return rec, io.EOF
}

type frameWriter[R any] struct {
	w              io.Writer
	kind           byte
	enc            func([]byte, R) []byte
	payload, frame []byte
}

func (fw *frameWriter[R]) Write(rec R) error {
	fw.payload = fw.enc(fw.payload[:0], rec)
	fw.frame = colblob.AppendFrame(fw.frame[:0], fw.kind, fw.payload)
	_, err := fw.w.Write(fw.frame)
	return err
}

type frameReader[R any] struct {
	fr   *colblob.FrameReader
	kind byte
	dec  func([]byte) (R, error)
}

func (r *frameReader[R]) Next() (R, error) {
	for {
		kind, payload, err := r.fr.Next()
		if err != nil {
			var zero R
			return zero, err
		}
		if kind != r.kind {
			continue // summary, heartbeat and unknown frames extend a stream compatibly
		}
		rec, err := r.dec(payload)
		if err != nil && !colblob.Corrupt(err) {
			err = fmt.Errorf("%w: %w", ErrBadRecord, err)
		}
		return rec, err
	}
}

// Read decodes a stream in either format, sniffed from its first byte,
// and hands each record to fn. Bad records are skipped; a torn tail
// ends the stream like a clean end, so journals survive the kill of
// their writer. An empty stream holds no records.
func Read[R any](r io.Reader, c Codec[R], fn func(R)) error {
	br := bufio.NewReaderSize(r, 64*1024)
	first, err := br.Peek(1)
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	rr := NewReader(br, Sniff(first[0]), c)
	for {
		rec, err := rr.Next()
		switch {
		case err == nil:
			fn(rec)
		case errors.Is(err, ErrBadRecord):
		case err == io.EOF || colblob.Corrupt(err):
			return nil
		default:
			return err
		}
	}
}

// ReadFile is Read over the file at path. A missing file holds no
// records: the natural state before a first run.
func ReadFile[R any](path string, c Codec[R], fn func(R)) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()
	return Read(f, c, fn)
}

// Log appends records to one stream under a mutex, each written on its
// own, so a killed run loses at most the record being written. A nil
// *Log is a valid no-op sink.
type Log[R any] struct {
	mu sync.Mutex
	w  Writer[R]
}

// NewLog wraps w as an f-encoded log. Pass an *os.File opened with
// O_APPEND to make each record durable as it lands.
func NewLog[R any](w io.Writer, f Format, c Codec[R]) *Log[R] {
	return &Log[R]{w: NewWriter(w, f, c)}
}

// Append writes one record.
func (l *Log[R]) Append(rec R) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(rec)
}

// Open opens (creating if absent) the log at path for appending. f
// selects the format of a new or empty file; a non-empty file keeps its
// own sniffed format, so resumed runs never interleave encodings in one
// file. Open first repairs the torn tail a killed writer leaves: a
// JSONL file that ends mid-line gets a newline, so appended records
// start on a fresh line; a binary file is truncated back to the end of
// its last good frame, since frames cannot resynchronize the way lines
// do. The caller must invoke close when done.
func Open[R any](path string, f Format, c Codec[R]) (l *Log[R], close func() error, err error) {
	f, enc, err := repair(path, f, c)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: repair %s: %w", path, err)
	}
	file, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	// Appended binary records chain on the file's existing tail.
	c.NewEncoder = func() func([]byte, R) []byte { return enc }
	return NewLog(file, f, c), file.Close, nil
}

// repair fixes the torn tail of the file at path in its own format and
// returns that format (want, for a missing or empty file) and, for
// binary, an encoder resumed at the repaired end.
func repair[R any](path string, want Format, c Codec[R]) (Format, func([]byte, R) []byte, error) {
	enc := c.NewEncoder()
	file, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return want, enc, nil
	}
	if err != nil {
		return want, nil, err
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil || fi.Size() == 0 {
		return want, enc, err
	}
	var b [1]byte
	if _, err := file.ReadAt(b[:], 0); err != nil {
		return want, nil, err
	}
	if Sniff(b[0]) == JSONL {
		if _, err := file.ReadAt(b[:], fi.Size()-1); err != nil || b[0] == '\n' {
			return JSONL, nil, err
		}
		_, err := file.WriteAt([]byte{'\n'}, fi.Size())
		return JSONL, nil, err
	}
	end, err := scanFrames(file, c, enc)
	if err == nil && end < fi.Size() {
		err = file.Truncate(end)
	}
	return Binary, enc, err
}

// scanFrames replays a binary log through a decoder, feeding every
// decoded record to enc so the encoder's state ends where a writer
// appending at the returned offset must resume. The offset is just
// past the last good frame; a torn or corrupt frame, or a payload that
// fails with a terminal decode error, ends the scan.
func scanFrames[R any](r io.Reader, c Codec[R], enc func([]byte, R) []byte) (int64, error) {
	cr := &countingReader{r: r}
	fr := colblob.NewFrameReader(cr)
	dec := c.NewDecoder()
	var end int64
	var buf []byte
	for {
		kind, payload, err := fr.Next()
		if err == io.EOF || colblob.Corrupt(err) {
			return end, nil
		}
		if err != nil {
			return end, err
		}
		if kind == c.Kind {
			rec, err := dec(payload)
			if colblob.Corrupt(err) {
				return end, nil
			}
			if err == nil {
				buf = enc(buf[:0], rec)
			}
		}
		// The frame reader buffers ahead: the consumed offset is what it
		// has read minus what it still holds.
		end = cr.n - int64(fr.Buffered())
	}
}

// countingReader counts the bytes handed to the frame reader's buffer.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
