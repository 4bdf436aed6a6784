package darshan

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
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

// ParseLog parses a single record from the text log format. Unknown counter
// names are ignored (newer Darshan versions add counters AIIO does not use);
// missing counters stay zero, which is exactly the sparsity semantics of
// Section 3.1.
func ParseLog(r io.Reader) (*Record, error) {
	rec := &Record{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseHeaderLine(rec, line); err != nil {
				return nil, fmt.Errorf("darshan: line %d: %w", lineno, err)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("darshan: line %d: want \"name value\", got %q", lineno, line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("darshan: line %d: bad value %q: %w", lineno, fields[1], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("darshan: line %d: non-finite value %q", lineno, fields[1])
		}
		if id, ok := CounterByName(fields[0]); ok {
			rec.Counters[id] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("darshan: read log: %w", err)
	}
	return rec, nil
}

func parseHeaderLine(rec *Record, line string) error {
	body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	key, value, found := strings.Cut(body, ":")
	if !found {
		return nil // free-form comment
	}
	key = strings.TrimSpace(key)
	value = strings.TrimSpace(value)
	switch key {
	case "exe":
		rec.App = value
	case "jobid":
		id, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("bad jobid %q: %w", value, err)
		}
		rec.JobID = id
	case "year":
		y, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("bad year %q: %w", value, err)
		}
		rec.Year = y
	case "performance_mibps":
		p, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("bad performance %q: %w", value, err)
		}
		rec.PerfMiBps = p
	case "slowest_seconds":
		s, err := strconv.ParseFloat(value, 64)
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
// are delimited by the log version header line; the first record that fails
// to parse aborts the whole stream.
func ParseDataset(r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	err := splitRecords(r, func(chunk string, _ int) error {
		rec, err := ParseLog(strings.NewReader(chunk))
		if err != nil {
			return err
		}
		ds.Append(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// versionHeader opens every record WriteLog writes.
const versionHeader = "# darshan log version:"

// splitRecords cuts a WriteDataset stream into one chunk of lines per
// record and hands each to fn with the 1-based line it starts on, stopping
// at fn's first error. A record starts at a version header line. Chunks of
// whitespace alone are record separators (or a blank preamble), not
// records: parsing one would fabricate an all-zero phantom job.
func splitRecords(r io.Reader, fn func(chunk string, line int) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var chunk strings.Builder
	start, lineno := 1, 0
	flush := func() error {
		defer chunk.Reset()
		if strings.TrimSpace(chunk.String()) == "" {
			return nil
		}
		return fn(chunk.String(), start)
	}
	for sc.Scan() {
		line := sc.Text()
		lineno++
		if strings.HasPrefix(line, versionHeader) && chunk.Len() > 0 {
			if err := flush(); err != nil {
				return err
			}
		}
		if chunk.Len() == 0 {
			start = lineno
		}
		chunk.WriteString(line)
		chunk.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}

// RecordError describes one quarantined record of a lenient parse.
type RecordError struct {
	// Index is the record's ordinal position in the stream, counting
	// quarantined records (0-based).
	Index int
	// Line is the 1-based line number where the record's chunk starts.
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
// record whose chunk fails to parse, or that carries NaN/Inf/negative
// counters or a non-finite performance tag, is skipped and reported in the
// returned quarantine list. Real Darshan corpora are riddled with corrupt,
// partial, and out-of-range records; one bad job must not discard the other
// millions. The returned error is non-nil only for a reader failure — a
// stream of pure garbage yields an empty dataset and a full quarantine.
func ParseDatasetLenient(r io.Reader) (*Dataset, []RecordError, error) {
	ds := &Dataset{}
	var quarantine []RecordError
	index := 0
	err := splitRecords(r, func(chunk string, line int) error {
		defer func() { index++ }()
		rec, err := ParseLog(strings.NewReader(chunk))
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
