package pathnoise

import (
	"errors"
	"io"

	"repro/internal/colblob"
	"repro/internal/journal"
)

// Path journals checkpoint a path run at stage granularity: one record
// per (path, stage, fixpoint iteration), carrying both the scalar
// outcome and the stage's receiver-output waveform series. The
// waveforms are what make stage-granular resume possible — a resumed
// run rebuilds the handoff into the next stage from the journal instead
// of re-simulating the stages it already has — so both formats store
// them losslessly (colblob float columns / JSON shortest-round-trip
// float64). Binary records are self-contained frames (kind
// colblob.FramePathStage, no cross-record chaining): waveform payloads
// dominate the size, so prefix compression would buy little, and
// self-containment lets a reader skip any single bad frame.

// StageKey identifies one journal record: a stage of a path at one
// window-fixpoint iteration.
type StageKey struct {
	Path  string
	Stage int
	Iter  int
}

// StageResult is the scalar outcome of one successful stage execution.
// All times are seconds; "local" means the stage's own simulation frame
// and "arrival" means path-absolute (local + the chain's frame shift).
type StageResult struct {
	InSlewQuiet float64 `json:"inSlewQuiet"` // derived victim slew, quiet chain
	InSlewNoisy float64 `json:"inSlewNoisy"` // derived victim slew, noisy chain
	QuietShift  float64 `json:"quietShift"`  // local->absolute, quiet chain
	NoisyShift  float64 `json:"noisyShift"`  // local->absolute, noisy chain
	QuietCross  float64 `json:"quietCross"`  // receiver-output 50%, local, quiet chain
	NoisyCross  float64 `json:"noisyCross"`  // receiver-output 50%, local, noisy chain
	QuietArr    float64 `json:"quietArr"`    // path-absolute quiet arrival at stage output
	NoisyArr    float64 `json:"noisyArr"`    // path-absolute noisy arrival at stage output
	StageQuiet  float64 `json:"stageQuiet"`  // stage combined delay, quiet chain
	StageNoise  float64 `json:"stageNoise"`  // per-stage worst-case delay noise (pessimism ref)
	TPeak       float64 `json:"tPeak"`       // chosen aggressor alignment, local frame
	Incremental float64 `json:"incremental"` // cumulative noise added by this stage
	Cumulative  float64 `json:"cumulative"`  // NoisyArr - QuietArr
	Iterations  int     `json:"iterations"`  // delaynoise fixpoint iterations of the noisy run
}

// nStageFloats is the scalar wire width of a StageResult.
const nStageFloats = 13

func (r *StageResult) fields() [nStageFloats]float64 {
	return [nStageFloats]float64{
		r.InSlewQuiet, r.InSlewNoisy, r.QuietShift, r.NoisyShift,
		r.QuietCross, r.NoisyCross, r.QuietArr, r.NoisyArr,
		r.StageQuiet, r.StageNoise, r.TPeak, r.Incremental, r.Cumulative,
	}
}

func (r *StageResult) setFields(f [nStageFloats]float64) {
	r.InSlewQuiet, r.InSlewNoisy, r.QuietShift, r.NoisyShift = f[0], f[1], f[2], f[3]
	r.QuietCross, r.NoisyCross, r.QuietArr, r.NoisyArr = f[4], f[5], f[6], f[7]
	r.StageQuiet, r.StageNoise, r.TPeak, r.Incremental, r.Cumulative = f[8], f[9], f[10], f[11], f[12]
}

// StageRecord is one journal record and one wire record of the
// analyze-path stream: the outcome of one stage execution, success or
// failure, plus the stage's receiver-output waveform series (quiet and
// noisy chains, local frame) when it succeeded.
type StageRecord struct {
	Path  string `json:"path"`
	Stage int    `json:"stage"`
	Iter  int    `json:"iter"`
	Net   string `json:"net"`
	// Final marks the last stage of the path; Done marks the record
	// that completes the path's analysis (final stage of the last
	// fixpoint iteration, or a terminal failure at any stage). The
	// gateway's exactly-once path merge finalizes on Done.
	Final bool `json:"final,omitempty"`
	Done  bool `json:"done,omitempty"`

	Quality string       `json:"quality,omitempty"`
	Class   string       `json:"class,omitempty"`
	Error   string       `json:"error,omitempty"`
	Result  *StageResult `json:"result,omitempty"`

	// Receiver-output waveform series, stage-local frame.
	QuietOutT []float64 `json:"quietOutT,omitempty"`
	QuietOutV []float64 `json:"quietOutV,omitempty"`
	NoisyOutT []float64 `json:"noisyOutT,omitempty"`
	NoisyOutV []float64 `json:"noisyOutV,omitempty"`
}

// Key returns the record's journal identity.
func (r *StageRecord) Key() StageKey { return StageKey{Path: r.Path, Stage: r.Stage, Iter: r.Iter} }

// PathJournal is the stage-record log of a path run (see package
// journal); a nil *PathJournal is a valid no-op sink.
type PathJournal = journal.Log[StageRecord]

// StageRecordCodec is the binary journal and wire encoding of stage
// records: one self-contained colblob FramePathStage frame per record.
// A payload that fails to decode costs only its own record.
var StageRecordCodec = journal.Codec[StageRecord]{
	Kind:       colblob.FramePathStage,
	NewEncoder: func() func([]byte, StageRecord) []byte { return appendStagePayload },
	NewDecoder: func() func([]byte) (StageRecord, error) { return decodeStagePayload },
}

// errBadStage marks a stage payload that does not parse. It is not
// colblob.Corrupt: readers skip the one frame.
var errBadStage = errors.New("pathnoise: bad stage record")

// Flag bits of the binary stage payload.
const (
	stageFinal   = 1 << 0
	stageDone    = 1 << 1
	stageQuality = 1 << 2
	stageClass   = 1 << 3
	stageError   = 1 << 4
	stageResult  = 1 << 5
	stageWaves   = 1 << 6
)

// appendStagePayload encodes one record, unframed. The payload is
// self-contained: no state is shared across records.
func appendStagePayload(dst []byte, rec StageRecord) []byte {
	dst = colblob.AppendString(dst, rec.Path)
	dst = colblob.AppendUvarint(dst, uint64(rec.Stage))
	dst = colblob.AppendUvarint(dst, uint64(rec.Iter))
	dst = colblob.AppendString(dst, rec.Net)
	var flags byte
	if rec.Final {
		flags |= stageFinal
	}
	if rec.Done {
		flags |= stageDone
	}
	if rec.Quality != "" {
		flags |= stageQuality
	}
	if rec.Class != "" {
		flags |= stageClass
	}
	if rec.Error != "" {
		flags |= stageError
	}
	if rec.Result != nil {
		flags |= stageResult
	}
	if rec.QuietOutT != nil || rec.NoisyOutT != nil {
		flags |= stageWaves
	}
	dst = append(dst, flags)
	if rec.Quality != "" {
		dst = colblob.AppendString(dst, rec.Quality)
	}
	if rec.Class != "" {
		dst = colblob.AppendString(dst, rec.Class)
	}
	if rec.Error != "" {
		dst = colblob.AppendString(dst, rec.Error)
	}
	if rec.Result != nil {
		dst = colblob.AppendUvarint(dst, uint64(rec.Result.Iterations))
		f := rec.Result.fields()
		dst = colblob.AppendFloats(dst, f[:])
	}
	if flags&stageWaves != 0 {
		for _, col := range [][]float64{rec.QuietOutT, rec.QuietOutV, rec.NoisyOutT, rec.NoisyOutV} {
			dst = colblob.AppendFloats(dst, col)
		}
	}
	return dst
}

// decodeStagePayload parses one payload produced by appendStagePayload.
func decodeStagePayload(payload []byte) (StageRecord, error) {
	var rec StageRecord
	var err error
	bad := func() (StageRecord, error) { return StageRecord{}, errBadStage }
	if rec.Path, payload, err = colblob.ReadString(payload); err != nil {
		return bad()
	}
	var u uint64
	if u, payload, err = colblob.ReadUvarint(payload); err != nil {
		return bad()
	}
	rec.Stage = int(u)
	if u, payload, err = colblob.ReadUvarint(payload); err != nil {
		return bad()
	}
	rec.Iter = int(u)
	if rec.Net, payload, err = colblob.ReadString(payload); err != nil {
		return bad()
	}
	if len(payload) < 1 {
		return bad()
	}
	flags := payload[0]
	payload = payload[1:]
	rec.Final = flags&stageFinal != 0
	rec.Done = flags&stageDone != 0
	if flags&stageQuality != 0 {
		if rec.Quality, payload, err = colblob.ReadString(payload); err != nil {
			return bad()
		}
	}
	if flags&stageClass != 0 {
		if rec.Class, payload, err = colblob.ReadString(payload); err != nil {
			return bad()
		}
	}
	if flags&stageError != 0 {
		if rec.Error, payload, err = colblob.ReadString(payload); err != nil {
			return bad()
		}
	}
	if flags&stageResult != 0 {
		if u, payload, err = colblob.ReadUvarint(payload); err != nil {
			return bad()
		}
		res := &StageResult{Iterations: int(u)}
		var f []float64
		if f, payload, err = colblob.ReadFloats(payload); err != nil || len(f) != nStageFloats {
			return bad()
		}
		var arr [nStageFloats]float64
		copy(arr[:], f)
		res.setFields(arr)
		rec.Result = res
	}
	if flags&stageWaves != 0 {
		cols := make([][]float64, 4)
		for i := range cols {
			if cols[i], payload, err = colblob.ReadFloats(payload); err != nil {
				return bad()
			}
		}
		rec.QuietOutT, rec.QuietOutV, rec.NoisyOutT, rec.NoisyOutV = cols[0], cols[1], cols[2], cols[3]
	}
	if len(payload) != 0 {
		return bad()
	}
	return rec, nil
}

// ReadPathJournal parses a stage journal in either format into
// records keyed by (path, stage, iter). Malformed records, the torn
// tail of a killed run included, are skipped; the last record for a
// key wins, so journals survive crashes and appended resume runs.
func ReadPathJournal(r io.Reader) (map[StageKey]StageRecord, error) {
	out := map[StageKey]StageRecord{}
	return out, journal.Read(r, StageRecordCodec, collect(out))
}

// ReadPathJournalFile is ReadPathJournal over the file at path; a
// missing file holds no records.
func ReadPathJournalFile(path string) (map[StageKey]StageRecord, error) {
	out := map[StageKey]StageRecord{}
	return out, journal.ReadFile(path, StageRecordCodec, collect(out))
}

// collect keys each record by its StageKey, dropping torn or empty
// records (no path, or neither a result nor an error).
func collect(out map[StageKey]StageRecord) func(StageRecord) {
	return func(rec StageRecord) {
		if rec.Path != "" && (rec.Result != nil || rec.Error != "") {
			out[rec.Key()] = rec
		}
	}
}
