package clarinet

import (
	"io"

	"repro/internal/delaynoise"
	"repro/internal/journal"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// JournalResult is the scalar subset of a delaynoise.Result that a
// journal preserves across a checkpoint/resume cycle: everything the
// reports and JSON output render, without the waveform payloads.
// encoding/json round-trips float64 exactly, so a resumed report
// renders byte-identically to the uninterrupted run.
type JournalResult struct {
	VictimCeff             float64 `json:"victimCeff"`
	VictimRth              float64 `json:"victimRth"`
	VictimRtr              float64 `json:"victimRtr"`
	PulseHeight            float64 `json:"pulseHeight"`
	PulseWidth             float64 `json:"pulseWidth"`
	TPeak                  float64 `json:"tPeak"`
	QuietCombinedDelay     float64 `json:"quietCombinedDelay"`
	NoisyCombinedDelay     float64 `json:"noisyCombinedDelay"`
	DelayNoise             float64 `json:"delayNoise"`
	InterconnectDelayNoise float64 `json:"interconnectDelayNoise"`
	Iterations             int     `json:"iterations"`
}

// JournalRecord is one JSONL line of a batch journal — and one NDJSON
// line of the noised streaming wire protocol: the outcome of one net,
// success or failure.
type JournalRecord struct {
	Net     string         `json:"net"`
	Quality string         `json:"quality,omitempty"`
	Class   string         `json:"class,omitempty"`
	Error   string         `json:"error,omitempty"`
	Result  *JournalResult `json:"result,omitempty"`
}

// ToRecord converts a completed report to its serialized journal/wire
// form. Cancellation-class reports return ok=false: a net aborted by a
// dying batch has no outcome worth replaying or transmitting.
func ToRecord(r NetReport) (JournalRecord, bool) {
	if r.Err != nil && noiseerr.Class(r.Err) == noiseerr.ErrCanceled {
		return JournalRecord{}, false
	}
	rec := JournalRecord{Net: r.Name}
	if r.Err != nil {
		rec.Error = r.Err.Error()
		rec.Class = noiseerr.ClassName(r.Err)
		return rec, true
	}
	rec.Quality = r.Quality.String()
	res := r.Res
	rec.Result = &JournalResult{
		VictimCeff:             res.VictimCeff,
		VictimRth:              res.VictimRth,
		VictimRtr:              res.VictimRtr,
		PulseHeight:            res.Pulse.Height,
		PulseWidth:             res.Pulse.Width,
		TPeak:                  res.TPeak,
		QuietCombinedDelay:     res.QuietCombinedDelay,
		NoisyCombinedDelay:     res.NoisyCombinedDelay,
		DelayNoise:             res.DelayNoise,
		InterconnectDelayNoise: res.InterconnectDelayNoise,
		Iterations:             res.Iterations,
	}
	return rec, true
}

// ToWireRecord serializes one report for a result stream. Unlike the
// journal form (ToRecord), canceled nets are transmitted — class
// "canceled", no result — because the client needs to know which nets a
// dying request never finished, even though a resumed request will
// re-analyze them.
func ToWireRecord(r NetReport) JournalRecord {
	if rec, ok := ToRecord(r); ok {
		return rec
	}
	return JournalRecord{
		Net:   r.Name,
		Class: noiseerr.ClassName(r.Err),
		Error: r.Err.Error(),
	}
}

// Report reconstructs the report a record describes. Torn records — no
// net name, or neither a result nor an error — return ok=false.
// encoding/json round-trips float64 exactly, so a reconstructed report
// renders byte-identically to the original.
func (rec JournalRecord) Report() (NetReport, bool) {
	if rec.Net == "" {
		return NetReport{}, false
	}
	rep := NetReport{Name: rec.Net}
	switch {
	case rec.Error != "":
		rep.Err = &resumedError{msg: rec.Error, class: noiseerr.ClassFromName(rec.Class)}
	case rec.Result != nil:
		res := rec.Result
		rep.Quality = resilience.QualityFromString(rec.Quality)
		rep.Res = &delaynoise.Result{
			VictimCeff:             res.VictimCeff,
			VictimRth:              res.VictimRth,
			VictimRtr:              res.VictimRtr,
			TPeak:                  res.TPeak,
			QuietCombinedDelay:     res.QuietCombinedDelay,
			NoisyCombinedDelay:     res.NoisyCombinedDelay,
			DelayNoise:             res.DelayNoise,
			InterconnectDelayNoise: res.InterconnectDelayNoise,
			Iterations:             res.Iterations,
		}
		rep.Res.Pulse.Height = res.PulseHeight
		rep.Res.Pulse.Width = res.PulseWidth
	default:
		return NetReport{}, false
	}
	return rep, true
}

// Journal appends completed net reports to a record log (see package
// journal), in either format. A nil *Journal is a valid no-op sink.
type Journal struct{ log *journal.Log[JournalRecord] }

// NewJournal wraps w as an f-encoded journal sink. File-backed
// journals go through OpenJournal.
func NewJournal(w io.Writer, f journal.Format) *Journal {
	return &Journal{log: journal.NewLog(w, f, RecordCodec)}
}

// OpenJournal opens (creating if absent) the journal at path for
// appending, repairing any torn final record a killed run left behind;
// f selects the format of a new journal, while an existing one keeps
// its own (journal.Open). The caller must invoke close when done.
func OpenJournal(path string, f journal.Format) (j *Journal, close func() error, err error) {
	log, close, err := journal.Open(path, f, RecordCodec)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: log}, close, nil
}

// Record appends one report. Cancellation-class reports are skipped —
// a net aborted by a dying batch has no outcome worth replaying, and
// skipping it makes the net eligible for re-analysis on resume.
// Deadline, panic, and other real failures are recorded: the resumed
// run reproduces them without re-spending their budgets.
func (j *Journal) Record(r NetReport) error {
	if j == nil {
		return nil
	}
	rec, ok := ToRecord(r)
	if !ok {
		return nil
	}
	return j.log.Append(rec)
}

// resumedError reconstructs a journaled failure: Error() reproduces the
// recorded message byte-for-byte (so resumed reports render identically)
// and Unwrap restores errors.Is matching against the recorded
// noiseerr class sentinel.
type resumedError struct {
	msg   string
	class error
}

func (e *resumedError) Error() string { return e.msg }

func (e *resumedError) Unwrap() error { return e.class }

// ReadJournal parses a batch journal in either format into reports
// keyed by net name, ready to hand to AnalyzeBatch as prior results.
// Malformed records, the torn tail of a killed run included, are
// skipped and the last record for a net wins, so journals survive
// crashes and appended resume runs.
func ReadJournal(r io.Reader) (map[string]NetReport, error) {
	out := map[string]NetReport{}
	return out, journal.Read(r, RecordCodec, collect(out))
}

// ReadJournalFile is ReadJournal over the file at path. A missing file
// is not an error: it holds no reports, the natural state of a first
// run.
func ReadJournalFile(path string) (map[string]NetReport, error) {
	out := map[string]NetReport{}
	return out, journal.ReadFile(path, RecordCodec, collect(out))
}

// collect keys each record's report by net; records with no net or
// neither outcome are torn and dropped.
func collect(out map[string]NetReport) func(JournalRecord) {
	return func(rec JournalRecord) {
		if rep, ok := rec.Report(); ok {
			out[rec.Net] = rep
		}
	}
}
