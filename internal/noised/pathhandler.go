package noised

import (
	"context"
	"io"
	"net/http"

	"repro/internal/clarinet"
	"repro/internal/journal"
	"repro/internal/noiseerr"
	"repro/internal/pathnoise"
	"repro/internal/workload"
)

// POST /v1/analyze-path is the path-mode twin of /v1/analyze: the body
// is a netgen case file with a paths section, the response streams one
// pathnoise.StageRecord per completed (path, stage, iteration) in the
// negotiated wire (NDJSON default, colblob FramePathStage frames on
// request), and the terminal summary carries the assembled path
// reports. The reports come from pathnoise.Assemble — the same pure
// function the CLI report file uses — so MarshalReport over the
// summary's reports is byte-identical to a clarinet -path-report run of
// the same workload.

// PathSummary is the terminal line/frame of an analyze-path stream.
type PathSummary struct {
	RequestID     string `json:"request_id,omitempty"`
	Paths         int    `json:"paths"`
	OK            int    `json:"ok"`
	Failed        int    `json:"failed"`
	Canceled      int    `json:"canceled"`
	StagesResumed int    `json:"stages_resumed"`
	ElapsedMS     int64  `json:"elapsed_ms"`
	Deadline      bool   `json:"deadline,omitempty"`
	Draining      bool   `json:"draining,omitempty"`

	// Reports are the end-to-end path outcomes in workload order;
	// pathnoise.MarshalReport renders them in the CLI's canonical bytes.
	Reports []*pathnoise.PathReport `json:"reports"`
}

// PathStreamLine is one NDJSON line of the analyze-path response: a
// stage record (Path non-empty), a keepalive heartbeat, or the terminal
// summary.
type PathStreamLine struct {
	pathnoise.StageRecord
	Heartbeat bool         `json:"heartbeat,omitempty"`
	Summary   *PathSummary `json:"pathSummary,omitempty"`
}

// runPathsFunc is the seam between the serving layer and the DAG
// scheduler; tests substitute controllable fakes for pathnoise.Run.
type runPathsFunc func(ctx context.Context, t *clarinet.Tool, paths []*pathnoise.Path, opt pathnoise.Options) ([]*pathnoise.PathReport, error)

// maxPathIterations bounds the per-request window-fixpoint ladder so a
// client cannot multiply the server's work without bound.
const maxPathIterations = 8

// PathWire is the /v1/analyze-path encoding: stage records (binary:
// self-contained FramePathStage frames, as in the binary stage
// journal), then a {"pathSummary": ...} line or summary frame.
var PathWire = Wire[pathnoise.StageRecord, PathSummary]{
	Records: func(w io.Writer) func(pathnoise.StageRecord) error {
		return journal.NewWriter(w, journal.Binary, pathnoise.StageRecordCodec).Write
	},
	Line: func(heartbeat bool, sum *PathSummary) any {
		return PathStreamLine{Heartbeat: heartbeat, Summary: sum}
	},
}

// handleAnalyzePath is POST /v1/analyze-path.
func (s *Server) handleAnalyzePath(w http.ResponseWriter, r *http.Request) {
	serve(s, w, r, pathUnit)
}

// pathUnit serves the paths of a workload file through the DAG
// scheduler, one stage record per completed (path, stage, iteration).
var pathUnit = &unit[pathnoise.StageRecord, pathnoise.StageRecord, PathSummary]{
	paths:      true,
	journalExt: ".path.journal",
	streamed:   mServerStagesStreamed,
	wire:       PathWire,
	load: func(s *Server, body io.Reader) (job[pathnoise.StageRecord, pathnoise.StageRecord, PathSummary], int, error) {
		_, cases, paths, err := workload.LoadPaths(body, s.session.Lib())
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		if len(paths) == 0 {
			return nil, http.StatusBadRequest, noiseerr.Invalidf("noised: case set defines no paths")
		}
		if len(cases) > s.cfg.MaxNets {
			return nil, http.StatusRequestEntityTooLarge,
				noiseerr.Invalidf("noised: stage cases exceed the per-request net limit")
		}
		return &pathJob{paths: paths}, 0, nil
	},
}

// pathJob is one /v1/analyze-path request.
type pathJob struct {
	paths   []*pathnoise.Path
	prior   map[pathnoise.StageKey]pathnoise.StageRecord
	journal *pathnoise.PathJournal
	reports []*pathnoise.PathReport
	done    chan struct{} // closed once reports is set
}

func (j *pathJob) openJournal(s *Server, path string) (int, func() error, error) {
	prior, err := pathnoise.ReadPathJournalFile(path)
	if err != nil {
		return 0, nil, err
	}
	stages, closeJournal, err := journal.Open(path, s.cfg.JournalFormat, pathnoise.StageRecordCodec)
	if err != nil {
		return 0, nil, err
	}
	j.prior, j.journal = prior, stages
	return len(prior), closeJournal, nil
}

// run starts the scheduler in its own goroutine; Emit forwards each
// stage record to the stream loop, which owns the response writer.
func (j *pathJob) run(ctx context.Context, s *Server, tool *clarinet.Tool, opt Options) <-chan pathnoise.StageRecord {
	recs := make(chan pathnoise.StageRecord, len(j.paths))
	j.done = make(chan struct{})
	go func() {
		defer close(j.done)
		defer close(recs)
		j.reports, _ = s.runPaths(ctx, tool, j.paths, pathnoise.Options{
			MaxIterations: opt.PathIterations,
			PathTimeout:   opt.PathTimeout,
			Journal:       j.journal,
			Prior:         j.prior,
			Emit: func(rec pathnoise.StageRecord) {
				select {
				case recs <- rec:
				case <-ctx.Done():
				}
			},
		})
	}()
	return recs
}

func (j *pathJob) record(rec pathnoise.StageRecord) pathnoise.StageRecord { return rec }

func (j *pathJob) summary(end runEnd) *PathSummary {
	<-j.done
	sum := &PathSummary{
		RequestID: end.requestID, Paths: len(j.paths), StagesResumed: len(j.prior),
		ElapsedMS: end.elapsedMS, Deadline: end.deadline, Draining: end.draining,
		Reports: j.reports,
	}
	for _, rep := range j.reports {
		switch {
		case rep.Class == "canceled":
			sum.Canceled++
		case rep.Failed():
			sum.Failed++
		default:
			sum.OK++
		}
	}
	return sum
}
