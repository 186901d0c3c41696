// Command noiseblob inspects and converts the repository's binary
// artifacts: colblob-framed journals (clarinet -journal, noised
// server-side journals), path-mode stage journals (clarinet -path,
// noised analyze-path) including their per-stage waveform series
// columns, the colblob wire stream, and warm-store entries. Everything
// decodes to JSON, so the compact formats stay greppable.
//
// Usage:
//
//	noiseblob dump <file>                     decode a journal (binary or
//	                                          JSONL, net or path-stage
//	                                          records, sniffed) or a
//	                                          .warm store entry to JSON
//	noiseblob convert -to binary|jsonl <in> <out>
//	                                          re-encode a net or path-stage
//	                                          journal; decoded values are
//	                                          identical across formats
//	noiseblob store <dir>                     list warm-store entries with
//	                                          sizes
//
// dump emits one JSON object per journal record (NDJSON, same shape as
// the jsonl journal encoding); warm-store entries and stream summary
// frames emit their JSON payload as-is. convert reads either format and
// writes the requested one — converting a binary journal to jsonl is
// the escape hatch when a debugging session needs grep and jq on a
// production journal.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/clarinet"
	"repro/internal/cliutil"
	"repro/internal/colblob"
	"repro/internal/journal"
	"repro/internal/pathnoise"
	"repro/internal/warmstore"
)

func main() {
	cliutil.Init("noiseblob")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage:\n  noiseblob dump <file>\n  noiseblob convert -to binary|jsonl <in> <out>\n  noiseblob store <dir>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	cliutil.ExitIfVersion()
	args := flag.Args()
	if len(args) == 0 {
		cliutil.Usagef("missing subcommand")
	}
	switch args[0] {
	case "dump":
		if len(args) != 2 {
			cliutil.Usagef("dump takes exactly one file")
		}
		if err := dump(os.Stdout, args[1]); err != nil {
			log.Fatal(err)
		}
	case "convert":
		fs := flag.NewFlagSet("convert", flag.ExitOnError)
		to := fs.String("to", "jsonl", "target journal encoding: binary | jsonl")
		fs.Parse(args[1:])
		if fs.NArg() != 2 {
			cliutil.Usagef("convert takes an input and an output file")
		}
		if err := convert(fs.Arg(0), fs.Arg(1), *to); err != nil {
			log.Fatal(err)
		}
	case "store":
		if len(args) != 2 {
			cliutil.Usagef("store takes exactly one directory")
		}
		if err := listStore(os.Stdout, args[1]); err != nil {
			log.Fatal(err)
		}
	default:
		cliutil.Usagef("unknown subcommand %q", args[0])
	}
}

// dump decodes a file to JSON on w. The format is sniffed: a colblob
// magic byte selects frame-by-frame decoding (journal records, stream
// summaries, warm-store entries, whatever the file holds); anything
// else is read as a JSONL journal of net or stage records.
func dump(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	first, err := br.Peek(1)
	if err != nil {
		if err == io.EOF {
			return nil // empty file: nothing to dump
		}
		return err
	}
	out := bufio.NewWriter(w)
	defer out.Flush()
	if first[0] == colblob.FrameMagic {
		return dumpFrames(out, br)
	}
	// Re-encoding JSONL as JSONL validates it record by record, so a
	// malformed line is reported rather than passed through.
	_, err = recode(out, br, journal.JSONL, journal.JSONL)
	return err
}

// isStageJournal reports whether the journal br starts holds path-stage
// records rather than net records: a binary journal by its first
// frame's kind, a JSONL one by the "path" key of its first line, which
// net records never have.
func isStageJournal(br *bufio.Reader) bool {
	head, _ := br.Peek(4096)
	if len(head) > 1 && head[0] == colblob.FrameMagic {
		return head[1] == colblob.FramePathStage
	}
	line, _, _ := bytes.Cut(head, []byte{'\n'})
	var probe struct {
		Path *string `json:"path"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		// The peek window may cut the first line mid-record; fall back to
		// the prefix the stage writer emits (Path is its first field).
		return bytes.HasPrefix(bytes.TrimSpace(head), []byte(`{"path":`))
	}
	return probe.Path != nil
}

// recode re-encodes the journal on br from one format to another, with
// the record type detected from the stream, and returns the number of
// records written.
func recode(w io.Writer, br *bufio.Reader, from, to journal.Format) (int, error) {
	if isStageJournal(br) {
		return copyRecords(w, br, from, to, pathnoise.StageRecordCodec)
	}
	return copyRecords(w, br, from, to, clarinet.RecordCodec)
}

// copyRecords streams records one at a time, so journals larger than
// memory convert fine. Malformed records are reported and skipped; a
// torn tail (the crash-truncation case journals are designed for) ends
// the stream cleanly.
func copyRecords[R any](w io.Writer, r io.Reader, from, to journal.Format, c journal.Codec[R]) (int, error) {
	rr := journal.NewReader(r, from, c)
	rw := journal.NewWriter(w, to, c)
	n := 0
	for {
		rec, err := rr.Next()
		switch {
		case err == io.EOF:
			return n, nil
		case errors.Is(err, journal.ErrBadRecord):
			fmt.Fprintf(os.Stderr, "noiseblob: skipping malformed record: %v\n", err)
			continue
		case colblob.Corrupt(err):
			fmt.Fprintf(os.Stderr, "noiseblob: torn tail after %d records: %v\n", n, err)
			return n, nil
		case err != nil:
			return n, err
		}
		if err := rw.Write(rec); err != nil {
			return n, err
		}
		n++
	}
}

// dumpFrames walks a colblob-framed file, decoding each frame by its
// kind. A torn tail ends the dump cleanly; mid-file corruption is an
// error.
func dumpFrames(w *bufio.Writer, r io.Reader) error {
	fr := colblob.NewFrameReader(r)
	decodeRecord := clarinet.RecordCodec.NewDecoder()
	decodeStage := pathnoise.StageRecordCodec.NewDecoder()
	enc := json.NewEncoder(w)
	for {
		kind, payload, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if colblob.Corrupt(err) {
			fmt.Fprintf(os.Stderr, "noiseblob: torn tail: %v\n", err)
			return nil
		}
		if err != nil {
			return err
		}
		switch kind {
		case colblob.FrameRecord:
			rec, err := decodeRecord(payload)
			if err != nil {
				fmt.Fprintf(os.Stderr, "noiseblob: torn record: %v\n", err)
				return nil
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		case colblob.FramePathStage:
			// Path-stage frames are self-contained (scalar fields plus the
			// stage's receiver-output waveform series columns), so one bad
			// payload is skippable rather than terminal.
			rec, err := decodeStage(payload)
			if err != nil {
				fmt.Fprintf(os.Stderr, "noiseblob: skipping bad stage frame: %v\n", err)
				continue
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		case colblob.FrameSummary, warmstore.FrameEntry:
			// The payload is already JSON; pass it through compacted so
			// the output stays one object per line.
			var buf []byte
			if json.Valid(payload) {
				buf = payload
			} else {
				buf, _ = json.Marshal(map[string]any{"malformed_payload_bytes": len(payload)})
			}
			if _, err := w.Write(append(buf, '\n')); err != nil {
				return err
			}
		default:
			if err := enc.Encode(map[string]any{"unknown_frame_kind": kind, "payload_bytes": len(payload)}); err != nil {
				return err
			}
		}
	}
}

// convert re-encodes a journal of net or stage records; decoded values
// are bit-identical across formats by the codecs' contract.
func convert(inPath, outPath, format string) error {
	to, err := journal.FormatByName(format)
	if err != nil {
		return err
	}
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	br := bufio.NewReader(in)
	from := to
	if first, err := br.Peek(1); err == nil {
		from = journal.Sniff(first[0])
	} else if err != io.EOF {
		return err
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(out)
	n, err := recode(bw, br, from, to)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	log.Printf("converted %d records to %s (%s)", n, outPath, to)
	return nil
}

// listStore prints one line per warm-store entry: key and size.
func listStore(w io.Writer, dir string) error {
	st, err := warmstore.Open(dir, nil)
	if err != nil {
		return err
	}
	keys, err := st.Keys()
	if err != nil {
		return err
	}
	for _, k := range keys {
		info, err := os.Stat(dir + string(os.PathSeparator) + k + ".warm")
		size := int64(-1)
		if err == nil {
			size = info.Size()
		}
		fmt.Fprintf(w, "%s\t%d\n", k, size)
	}
	return nil
}
