package noised

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/journal"
)

// StreamWriter writes one analyze response: records in completion
// order, keepalive heartbeats while none completes, and the terminal
// summary. Replicas and the gateway write through the same one, so the
// two serve the same bytes.
type StreamWriter[R, S any] interface {
	Record(rec R) error
	Heartbeat() error
	Summary(sum *S) error
}

// Wire is one analyze endpoint's response encoding, as the two things
// that differ between endpoints: how a record becomes a colblob frame,
// and how a heartbeat or the summary wraps into an NDJSON line. Records
// themselves go out on NDJSON bare, one per line.
type Wire[R, S any] struct {
	// Records returns the colblob record-frame writer over w: the
	// binary journal writer, so the binary wire and the binary journal
	// share one encoding (and its compression state).
	Records func(w io.Writer) func(R) error
	// Line wraps a heartbeat (heartbeat true, sum nil) or the summary
	// as one NDJSON line.
	Line func(heartbeat bool, sum *S) any
}

// NetWire is the /v1/analyze encoding: clarinet journal records, then
// a {"summary": ...} line or summary frame.
var NetWire = Wire[clarinet.JournalRecord, Summary]{
	Records: func(w io.Writer) func(clarinet.JournalRecord) error {
		return journal.NewWriter(w, journal.Binary, clarinet.RecordCodec).Write
	},
	Line: func(heartbeat bool, sum *Summary) any {
		return StreamLine{Heartbeat: heartbeat, Summary: sum}
	},
}

// Negotiate picks the response encoding from the Accept header: a
// client that asks for application/x-noise-colblob gets the binary
// wire, everyone else the NDJSON default. It returns the writer and
// the Content-Type to answer with.
func (wire Wire[R, S]) Negotiate(r *http.Request, w io.Writer) (StreamWriter[R, S], string) {
	if strings.Contains(r.Header.Get("Accept"), clarinet.ContentTypeColblob) {
		return &colblobStream[R, S]{w: w, record: wire.Records(w)}, clarinet.ContentTypeColblob
	}
	return ndjsonStream[R, S]{enc: json.NewEncoder(w), line: wire.Line}, clarinet.ContentTypeNDJSON
}

// ndjsonStream writes the JSON lines wire.
type ndjsonStream[R, S any] struct {
	enc  *json.Encoder
	line func(bool, *S) any
}

func (s ndjsonStream[R, S]) Record(rec R) error   { return s.enc.Encode(rec) }
func (s ndjsonStream[R, S]) Heartbeat() error     { return s.enc.Encode(s.line(true, nil)) }
func (s ndjsonStream[R, S]) Summary(sum *S) error { return s.enc.Encode(s.line(false, sum)) }

// colblobStream writes the binary wire: records as the codec's frames,
// heartbeats as empty heartbeat frames, and the summary as a summary
// frame with a JSON payload (it occurs once, so its schema stays
// shared with the NDJSON wire).
type colblobStream[R, S any] struct {
	w      io.Writer
	record func(R) error
	buf    []byte
}

func (s *colblobStream[R, S]) Record(rec R) error { return s.record(rec) }

func (s *colblobStream[R, S]) Heartbeat() error { return s.frame(colblob.FrameHeartbeat, nil) }

func (s *colblobStream[R, S]) Summary(sum *S) error {
	payload, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	return s.frame(colblob.FrameSummary, payload)
}

func (s *colblobStream[R, S]) frame(kind byte, payload []byte) error {
	s.buf = colblob.AppendFrame(s.buf[:0], kind, payload)
	_, err := s.w.Write(s.buf)
	return err
}
