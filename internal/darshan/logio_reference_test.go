package darshan

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The two-pass parser the streaming decoder replaced, kept verbatim as the
// oracle FuzzParseMatchesReference holds the decoder to: splitRecords copied
// each record's lines into a chunk, and ParseLog re-scanned that chunk with
// a scanner of its own.

func refParseLog(r io.Reader) (*Record, error) {
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
			if err := refParseHeaderLine(rec, line); err != nil {
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

func refParseHeaderLine(rec *Record, line string) error {
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

func refParseDataset(r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	err := refSplitRecords(r, func(chunk string, _ int) error {
		rec, err := refParseLog(strings.NewReader(chunk))
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

func refSplitRecords(r io.Reader, fn func(chunk string, line int) error) error {
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

func refParseDatasetLenient(r io.Reader) (*Dataset, []RecordError, error) {
	ds := &Dataset{}
	var quarantine []RecordError
	index := 0
	err := refSplitRecords(r, func(chunk string, line int) error {
		defer func() { index++ }()
		rec, err := refParseLog(strings.NewReader(chunk))
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
