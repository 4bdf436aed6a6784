package darshan

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The text log format mirrors darshan-parser output closely enough to be
// familiar: a commented header carrying job metadata, followed by one
// "<counter-name>\t<value>" line per counter. It is the interchange format
// between the workload runner, the log database on disk, and the AIIO web
// service.

// WriteLog writes rec in the text log format.
func WriteLog(w io.Writer, rec *Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# darshan log version: aiio-1.0\n")
	fmt.Fprintf(bw, "# exe: %s\n", rec.App)
	fmt.Fprintf(bw, "# jobid: %d\n", rec.JobID)
	fmt.Fprintf(bw, "# year: %d\n", rec.Year)
	fmt.Fprintf(bw, "# performance_mibps: %s\n", formatFloat(rec.PerfMiBps))
	fmt.Fprintf(bw, "# slowest_seconds: %s\n", formatFloat(rec.SlowestSeconds))
	for id := CounterID(0); id < NumCounters; id++ {
		fmt.Fprintf(bw, "%s\t%s\n", id, formatFloat(rec.Counters[id]))
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	// Darshan counters are almost always integers; print them that way for
	// familiar darshan-parser-looking output.
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// maxLine caps one line of a log stream: a line of maxLine bytes or more,
// not counting its newline, fails the read with bufio.ErrTooLong.
const maxLine = 1024 * 1024

// versionHeader opens every record WriteLog writes.
const versionHeader = "# darshan log version:"

// ErrSecondRecord is wrapped by ParseLog's error when a version header after
// the record's content opens a second record: merging two jobs' lines would
// describe a job that never ran, so a multi-record stream goes to
// ParseDataset.
var ErrSecondRecord = errors.New("a second record starts here")

// ParseLog parses a single record from the text log format. Unknown counter
// names are ignored (newer Darshan versions add counters AIIO does not use);
// missing counters stay zero, which is exactly the sparsity semantics of
// Section 3.1. A second record in the stream is an error that wraps
// ErrSecondRecord.
func ParseLog(r io.Reader) (*Record, error) {
	d := newDecoder(r)
	rec := &Record{}
	if _, err := d.record(rec, true); err != nil {
		return nil, err
	}
	if err := d.sc.Err(); err != nil {
		return nil, fmt.Errorf("darshan: read log: %w", err)
	}
	return rec, nil
}

// decoder is the one pass over a text log stream behind ParseLog,
// ParseDataset and ParseDatasetLenient. Each line is parsed from the
// scanner's bytes straight into the current Record, so a record allocates
// itself and its App string, and memory stays bounded by the longest line
// however long the stream.
type decoder struct {
	sc   *bufio.Scanner
	line int  // the 1-based number of the line last scanned
	held bool // that line is a version header that opens the next record
}

func newDecoder(r io.Reader) *decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	return &decoder{sc: sc}
}

// span describes the lines record read for one record.
type span struct {
	start    int  // the line the record starts on; 0 once the stream is done
	opened   bool // a version header line opened the record
	counters bool // it holds a counter line: one neither blank nor a # comment
}

// preamble reports whether the lines are a preamble, not a record: lines
// before the first version header that hold no counter line. Decoding one
// would invent an all-zero job.
func (s span) preamble() bool { return !s.opened && !s.counters }

// record decodes the next record's lines into rec and returns the error of
// its first bad line, numbered from the record's start. In a dataset
// (single false) a record runs up to the next version header line, which is
// held for the next call, so that the next call starts at the next record
// even after a bad line. A single log returns at its first bad line, and a
// version header after its content is an error. When the scanner stops,
// d.sc.Err tells whether the stream ended or failed.
func (d *decoder) record(rec *Record, single bool) (s span, err error) {
	for {
		if d.held {
			d.held = false
		} else if d.sc.Scan() {
			d.line++
		} else {
			return s, err
		}
		b := d.sc.Bytes()
		if isVersionHeader(b) {
			switch {
			case single && (s.opened || s.counters):
				return s, fmt.Errorf("darshan: line %d: %w", d.line, ErrSecondRecord)
			case !single && s.start != 0:
				d.held = true
				return s, err
			}
			s.opened = true
		}
		if s.start == 0 {
			s.start = d.line
		}
		counter, lerr := parseLine(rec, b)
		s.counters = s.counters || counter
		if lerr != nil && err == nil {
			err = fmt.Errorf("darshan: line %d: %w", d.line-s.start+1, lerr)
			if single {
				return s, err
			}
		}
	}
}

// each decodes a dataset stream record by record and hands fn each record,
// the line it starts on and the error of its first bad line, stopping at
// fn's first error. A preamble is skipped. A failed read ends the stream
// with the reader's error, which wins over the error of the record it cut
// short.
func (d *decoder) each(fn func(rec *Record, line int, err error) error) error {
	for {
		rec := &Record{}
		s, err := d.record(rec, false)
		if serr := d.sc.Err(); serr != nil {
			return serr
		}
		if s.start == 0 {
			return nil
		}
		if s.preamble() {
			continue
		}
		if err := fn(rec, s.start, err); err != nil {
			return err
		}
	}
}

func isVersionHeader(b []byte) bool {
	return len(b) >= len(versionHeader) && string(b[:len(versionHeader)]) == versionHeader
}

// parseLine parses one line into rec and reports whether it is a counter
// line.
func parseLine(rec *Record, b []byte) (counter bool, err error) {
	b = bytes.TrimSpace(b)
	switch {
	case len(b) == 0:
		return false, nil
	case b[0] == '#':
		body := bytes.TrimSpace(b[1:])
		i := bytes.IndexByte(body, ':')
		if i < 0 {
			return false, nil // free-form comment
		}
		return false, setHeader(rec, bytes.TrimSpace(body[:i]), bytes.TrimSpace(body[i+1:]))
	}
	name, rest := field(b)
	value, rest := field(rest)
	if len(value) == 0 || len(rest) > 0 {
		return true, fmt.Errorf("want \"name value\", got %q", b)
	}
	return true, setCounter(rec, name, value)
}

// field cuts the first field off b, a line that starts with a non-space
// rune, and returns it and the rest after the spaces that follow. It splits
// as strings.Fields does.
func field(b []byte) (f, rest []byte) {
	i := 0
	for i < len(b) && spaceLen(b, i) == 0 {
		i++ // a rune's continuation bytes are never a space
	}
	j := i
	for j < len(b) {
		n := spaceLen(b, j)
		if n == 0 {
			break
		}
		j += n
	}
	return b[:i], b[j:]
}

// spaceLen returns the width of the whitespace rune at b[i], as
// strings.Fields judges it, or 0 if another rune or byte is there. An ASCII
// byte is looked up inline; a rune is decoded only at a byte of 0x80 or more.
func spaceLen(b []byte, i int) int {
	if c := b[i]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return unicodeSpaceLen(b[i:])
}

// asciiSpace is the ASCII whitespace of strings.Fields and strings.TrimSpace.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

func unicodeSpaceLen(b []byte) int {
	if r, n := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return n
	}
	return 0
}

func setCounter(rec *Record, name, value []byte) error {
	v, err := strconv.ParseFloat(string(value), 64)
	if err != nil {
		return fmt.Errorf("bad value %q: %w", value, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("non-finite value %q", value)
	}
	if id, ok := CounterByName(string(name)); ok {
		rec.Counters[id] = v
	}
	return nil
}

// setHeader applies one "# key: value" header line to rec; a key it does
// not know makes the line a comment.
func setHeader(rec *Record, key, value []byte) error {
	switch string(key) {
	case "exe":
		rec.App = string(value)
	case "jobid":
		id, err := strconv.ParseInt(string(value), 10, 64)
		if err != nil {
			return fmt.Errorf("bad jobid %q: %w", value, err)
		}
		rec.JobID = id
	case "year":
		y, err := strconv.Atoi(string(value))
		if err != nil {
			return fmt.Errorf("bad year %q: %w", value, err)
		}
		rec.Year = y
	case "performance_mibps":
		p, err := strconv.ParseFloat(string(value), 64)
		if err != nil {
			return fmt.Errorf("bad performance %q: %w", value, err)
		}
		rec.PerfMiBps = p
	case "slowest_seconds":
		s, err := strconv.ParseFloat(string(value), 64)
		if err != nil {
			return fmt.Errorf("bad slowest_seconds %q: %w", value, err)
		}
		rec.SlowestSeconds = s
	}
	return nil
}

// WriteDataset writes every record of d, separated by a blank line, so a
// whole log database can live in one stream.
func WriteDataset(w io.Writer, d *Dataset) error {
	for i, rec := range d.Records {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := WriteLog(w, rec); err != nil {
			return err
		}
	}
	return nil
}

// ParseDataset parses a stream of records produced by WriteDataset. Records
// are delimited by the log version header line, and lines before the first
// one that hold no counter line are a preamble, not a record. The first
// record that fails to parse aborts the whole stream.
func ParseDataset(r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	err := newDecoder(r).each(func(rec *Record, _ int, err error) error {
		if err == nil {
			ds.Append(rec)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// RecordError describes one quarantined record of a lenient parse.
type RecordError struct {
	// Index is the record's ordinal position in the stream, counting
	// quarantined records (0-based).
	Index int
	// Line is the 1-based line number where the record starts.
	Line int
	// Reason is why the record was quarantined.
	Reason string
}

// Error implements the error interface.
func (e RecordError) Error() string {
	return fmt.Sprintf("darshan: record %d (line %d) quarantined: %s", e.Index, e.Line, e.Reason)
}

// ParseDatasetLenient parses a WriteDataset-format stream like ParseDataset
// but quarantines bad records instead of aborting the whole database: a
// record with a line that fails to parse, or that carries NaN/Inf/negative
// counters or a non-finite performance tag, is skipped and reported in the
// returned quarantine list. Real Darshan corpora are riddled with corrupt,
// partial, and out-of-range records; one bad job must not discard the other
// millions. The returned error is non-nil only for a reader failure — a
// stream of pure garbage yields an empty dataset and a full quarantine.
func ParseDatasetLenient(r io.Reader) (*Dataset, []RecordError, error) {
	ds := &Dataset{}
	var quarantine []RecordError
	index := 0
	err := newDecoder(r).each(func(rec *Record, line int, err error) error {
		defer func() { index++ }()
		if err != nil {
			quarantine = append(quarantine, RecordError{Index: index, Line: line, Reason: err.Error()})
			return nil
		}
		if reason := vetRecord(rec); reason != "" {
			quarantine = append(quarantine, RecordError{Index: index, Line: line, Reason: reason})
			return nil
		}
		ds.Append(rec)
		return nil
	})
	if err != nil {
		// fn never fails, so the error is the reader's.
		return nil, nil, fmt.Errorf("darshan: read log stream: %w", err)
	}
	return ds, quarantine, nil
}

// vetRecord returns a non-empty reason when a parsed record is out of
// range for the lenient parser: non-finite or negative counters, or a
// non-finite performance tag. (ParseLog already rejects non-finite counter
// literals; this catches values smuggled through headers or computed
// fields.)
func vetRecord(rec *Record) string {
	for id := CounterID(0); id < NumCounters; id++ {
		v := rec.Counters[id]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("counter %s is not finite: %v", id, v)
		}
		if v < 0 {
			return fmt.Sprintf("counter %s is negative: %v", id, v)
		}
	}
	if math.IsNaN(rec.PerfMiBps) || math.IsInf(rec.PerfMiBps, 0) {
		return fmt.Sprintf("performance tag is not finite: %v", rec.PerfMiBps)
	}
	if rec.PerfMiBps < 0 {
		return fmt.Sprintf("performance tag is negative: %v", rec.PerfMiBps)
	}
	return ""
}

// QuarantineSummary renders a one-line human-readable account of a lenient
// parse: how many records survived, how many were quarantined, and the
// first few reasons.
func QuarantineSummary(accepted int, quarantine []RecordError) string {
	if len(quarantine) == 0 {
		return fmt.Sprintf("%d records parsed, none quarantined", accepted)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d records parsed, %d quarantined", accepted, len(quarantine))
	const maxShown = 3
	for i, q := range quarantine {
		if i >= maxShown {
			fmt.Fprintf(&b, "; and %d more", len(quarantine)-maxShown)
			break
		}
		fmt.Fprintf(&b, "; [record %d line %d] %s", q.Index, q.Line, q.Reason)
	}
	return b.String()
}
