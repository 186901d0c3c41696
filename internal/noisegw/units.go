package noisegw

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/clarinet"
	"repro/internal/metrics"
	"repro/internal/noised"
	"repro/internal/noiseerr"
	"repro/internal/pathnoise"
	"repro/internal/workload"
)

// The two units the gateway serves. A net's case routes by its
// characterization bucket (see bucketKey) and merges record by record.
// A path routes whole, by name: its stages chain (stage k's noisy
// receiver-output waveform is stage k+1's victim input), so splitting
// one path across replicas would serialize every boundary on a
// cross-replica handoff and forfeit the stage journal's locality.

// netUnit is POST /v1/analyze.
var netUnit = &unit[workload.CaseJSON, clarinet.JournalRecord, noised.Summary]{
	noun:     "nets",
	endpoint: "/v1/analyze",
	family:   "s",
	hedge:    true,
	wire:     noised.NetWire,
	name:     func(c workload.CaseJSON) string { return c.Name },
	key:      bucketKey,
	parse: func(line []byte) (*clarinet.JournalRecord, *noised.Summary, error) {
		var sl noised.StreamLine
		if err := json.Unmarshal(line, &sl); err != nil || sl.Net == "" {
			return nil, sl.Summary, err
		}
		return &sl.JournalRecord, sl.Summary, nil
	},
	validate: func(file workload.FileJSON, maxNets int) error {
		if len(file.Cases) == 0 {
			return noiseerr.Invalidf("noisegw: empty case set")
		}
		if len(file.Cases) > maxNets {
			return noiseerr.Invalidf("noisegw: %d nets exceeds the limit %d", len(file.Cases), maxNets)
		}
		_, err := caseNames(file.Cases)
		return err
	},
	newBatch: func(g *Gateway, file workload.FileJSON, start time.Time) batch[workload.CaseJSON, clarinet.JournalRecord, noised.Summary] {
		return &netBatch{reg: g.reg, file: file, start: start, done: map[string]bool{}}
	},
}

// caseNames indexes a case set by net name, rejecting a missing or
// repeated one.
func caseNames(cases []workload.CaseJSON) (map[string]bool, error) {
	seen := make(map[string]bool, len(cases))
	for _, c := range cases {
		if c.Name == "" || seen[c.Name] {
			return nil, noiseerr.Invalidf("noisegw: missing or duplicate net name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return seen, nil
}

// netBatch merges net records: the first real outcome per net wins.
type netBatch struct {
	reg   *metrics.Registry
	file  workload.FileJSON
	start time.Time

	mu   sync.Mutex
	done map[string]bool // net -> finalized

	ok, failed int // delivered records, tallied by the handler
}

func (b *netBatch) units() []workload.CaseJSON { return b.file.Cases }

// body serializes one shard as the workload JSON schema the replicas
// parse.
func (b *netBatch) body(cases []workload.CaseJSON) ([]byte, error) {
	return json.Marshal(workload.FileJSON{Technology: b.file.Technology, Cases: cases})
}

// merge finalizes a net on its first real outcome; duplicates and
// canceled placeholders drop (the latter stay eligible for the reshard
// that completes them).
func (b *netBatch) merge(rec clarinet.JournalRecord) bool {
	if rec.Class == "canceled" {
		return false
	}
	b.mu.Lock()
	if b.done[rec.Net] {
		b.mu.Unlock()
		b.reg.Counter(mGwNetsDuplicate).Inc()
		return false
	}
	b.done[rec.Net] = true
	b.mu.Unlock()
	b.reg.Counter(mGwNetsMerged).Inc()
	b.reg.Histogram(mGwNetLatency).Observe(time.Since(b.start))
	return true
}

func (b *netBatch) adopt(*noised.Summary) {}

func (b *netBatch) finished(c workload.CaseJSON) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.done[c.Name]
}

func (b *netBatch) delivered(rec clarinet.JournalRecord) {
	if rec.Error == "" {
		b.ok++
	} else {
		b.failed++
	}
}

// finish emits a terminal record per net no stream finalized:
// canceled when the run's own context died, a reshard failure
// otherwise. No late stream can contradict them now.
func (b *netBatch) finish(stream noised.StreamWriter[clarinet.JournalRecord, noised.Summary], end runEnd) error {
	sum := noised.Summary{RequestID: end.requestID, Nets: len(b.file.Cases), OK: b.ok, Failed: b.failed}
	for _, c := range b.file.Cases {
		if b.finished(c) {
			continue
		}
		b.reg.Counter(mGwNetsUnassigned).Inc()
		rec := unfinishedRecord(c.Name, end.ctx)
		if rec.Class == "canceled" {
			sum.Canceled++
		} else {
			sum.Failed++
		}
		if err := stream.Record(rec); err != nil {
			return err
		}
	}
	sum.ElapsedMS = end.elapsedMS
	sum.Deadline = end.ctx.Err() == context.DeadlineExceeded
	sum.Draining = end.draining
	return stream.Summary(&sum)
}

// unfinishedRecord renders the terminal record of a net no replica
// finished: a canceled placeholder when the run itself was cut short,
// an internal reshard failure when the recovery budget ran out.
func unfinishedRecord(net string, ctx context.Context) clarinet.JournalRecord {
	var err error
	if ctx.Err() != nil {
		err = noiseerr.Canceled(fmt.Errorf("noisegw: run canceled before net completed: %w", ctx.Err()))
	} else {
		err = noiseerr.InStage(noiseerr.StageReshard,
			noiseerr.Internalf("noisegw: reshard budget exhausted with no healthy replica finishing the net"))
	}
	return clarinet.ToWireRecord(clarinet.NetReport{Name: net, Err: noiseerr.WithNet(net, err)})
}

// pathUnit is POST /v1/analyze-path. Exactly-once per path rests on the
// replica's reports: pathnoise emits a Done stage record when a path
// completes (success or a terminal failure such as a per-path
// deadline) and journals nothing for caller-canceled paths, so "no
// adopted report yet" is precisely "safe to reshard onto a survivor".
var pathUnit = &unit[workload.PathJSON, pathnoise.StageRecord, noised.PathSummary]{
	noun:     "paths",
	endpoint: "/v1/analyze-path",
	family:   "p",
	paths:    true,
	wire:     noised.PathWire,
	name:     func(p workload.PathJSON) string { return p.Name },
	// The "path/" prefix keeps path keys in their own hash family,
	// distinct from the per-net bucket keys.
	key: func(p workload.PathJSON) string { return "path/" + p.Name },
	parse: func(line []byte) (*pathnoise.StageRecord, *noised.PathSummary, error) {
		var sl noised.PathStreamLine
		if err := json.Unmarshal(line, &sl); err != nil || sl.Path == "" {
			return nil, sl.Summary, err
		}
		return &sl.StageRecord, sl.Summary, nil
	},
	validate: validatePathFile,
	newBatch: func(g *Gateway, file workload.FileJSON, _ time.Time) batch[workload.PathJSON, pathnoise.StageRecord, noised.PathSummary] {
		byName := make(map[string]workload.CaseJSON, len(file.Cases))
		for _, c := range file.Cases {
			byName[c.Name] = c
		}
		return &pathBatch{
			reg:        g.reg,
			file:       file,
			caseByName: byName,
			seen:       map[pathnoise.StageKey]bool{},
			reports:    map[string]*pathnoise.PathReport{},
		}
	},
}

// validatePathFile checks the structural invariants the gateway can
// enforce without a device library: unique case and path names, every
// stage resolvable, a non-empty path set, and the net cap.
func validatePathFile(file workload.FileJSON, maxNets int) error {
	if len(file.Paths) == 0 {
		return noiseerr.Invalidf("noisegw: case set defines no paths")
	}
	if len(file.Cases) > maxNets {
		return noiseerr.Invalidf("noisegw: %d stage cases exceeds the limit %d", len(file.Cases), maxNets)
	}
	cases, err := caseNames(file.Cases)
	if err != nil {
		return err
	}
	paths := make(map[string]bool, len(file.Paths))
	for _, p := range file.Paths {
		if p.Name == "" || paths[p.Name] {
			return noiseerr.Invalidf("noisegw: missing or duplicate path name %q", p.Name)
		}
		paths[p.Name] = true
		if len(p.Stages) == 0 {
			return noiseerr.Invalidf("noisegw: path %s has no stages", p.Name)
		}
		for _, stage := range p.Stages {
			if !cases[stage] {
				return noiseerr.Invalidf("noisegw: path %s references unknown case %q", p.Name, stage)
			}
		}
	}
	return nil
}

// pathBatch forwards stage records deduplicated by (path, stage, iter)
// and finalizes a path on the first real report a shard summary
// carries.
type pathBatch struct {
	reg        *metrics.Registry
	file       workload.FileJSON
	caseByName map[string]workload.CaseJSON

	mu      sync.Mutex
	seen    map[pathnoise.StageKey]bool      // stage-record dedupe
	reports map[string]*pathnoise.PathReport // path -> first real outcome
	resumed int                              // stages adopted from replica journals
}

func (b *pathBatch) units() []workload.PathJSON { return b.file.Paths }

// body serializes one path shard: the shard's path definitions plus
// exactly the stage cases they reference, in path order.
func (b *pathBatch) body(paths []workload.PathJSON) ([]byte, error) {
	f := workload.FileJSON{Technology: b.file.Technology, Paths: paths}
	added := map[string]bool{}
	for _, p := range paths {
		for _, stage := range p.Stages {
			if added[stage] {
				continue
			}
			c, ok := b.caseByName[stage]
			if !ok {
				return nil, noiseerr.Invalidf("noisegw: path %s references unknown case %q", p.Name, stage)
			}
			f.Cases = append(f.Cases, c)
			added[stage] = true
		}
	}
	return json.Marshal(f)
}

// merge forwards a stage record once: replays from replica-side
// journal resume after a shed retry present the same key and drop.
func (b *pathBatch) merge(rec pathnoise.StageRecord) bool {
	b.mu.Lock()
	if b.seen[rec.Key()] {
		b.mu.Unlock()
		b.reg.Counter(mGwStagesDuplicate).Inc()
		return false
	}
	b.seen[rec.Key()] = true
	b.mu.Unlock()
	b.reg.Counter(mGwStagesMerged).Inc()
	return true
}

// adopt takes a shard summary's path reports: the first real outcome
// per path wins. Canceled reports never finalize a path — the replica
// was cut off mid-path and journaled nothing, so the reshard completes
// it instead.
func (b *pathBatch) adopt(sum *noised.PathSummary) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.resumed += sum.StagesResumed
	for _, rep := range sum.Reports {
		if rep == nil || rep.Class == "canceled" {
			continue
		}
		if b.reports[rep.Name] == nil {
			b.reports[rep.Name] = rep
			b.reg.Counter(mGwPathsMerged).Inc()
		}
	}
}

func (b *pathBatch) finished(p workload.PathJSON) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reports[p.Name] != nil
}

func (b *pathBatch) delivered(pathnoise.StageRecord) {}

// finish writes the summary: the reports in the client's path order
// (the order pathnoise.Assemble uses), a terminal report standing in
// for every path no replica finished.
func (b *pathBatch) finish(stream noised.StreamWriter[pathnoise.StageRecord, noised.PathSummary], end runEnd) error {
	sum := noised.PathSummary{RequestID: end.requestID, Paths: len(b.file.Paths)}
	b.mu.Lock()
	for _, pj := range b.file.Paths {
		rep := b.reports[pj.Name]
		if rep == nil {
			b.reg.Counter(mGwPathsUnassigned).Inc()
			rep = unfinishedPathReport(pj.Name, end.ctx)
		}
		switch {
		case rep.Class == "canceled":
			sum.Canceled++
		case rep.Failed():
			sum.Failed++
		default:
			sum.OK++
		}
		sum.Reports = append(sum.Reports, rep)
	}
	sum.StagesResumed = b.resumed
	b.mu.Unlock()
	sum.ElapsedMS = end.elapsedMS
	sum.Deadline = end.ctx.Err() == context.DeadlineExceeded
	sum.Draining = end.draining
	return stream.Summary(&sum)
}

// unfinishedPathReport renders the terminal report of a path no replica
// completed: canceled when the run was cut short, a reshard-budget
// failure otherwise.
func unfinishedPathReport(name string, ctx context.Context) *pathnoise.PathReport {
	rep := &pathnoise.PathReport{Name: name}
	if ctx.Err() != nil {
		rep.Class = "canceled"
		rep.Error = fmt.Sprintf("noisegw: run canceled before path completed: %v", ctx.Err())
	} else {
		rep.Class = noiseerr.ClassName(noiseerr.ErrInternal) // "internal"
		rep.Error = "noisegw: reshard budget exhausted with no healthy replica finishing the path"
	}
	return rep
}
