package darshan

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseLog exercises the text-log parser with hostile input: it must
// never panic, and anything it accepts must survive a write/parse round
// trip.
func FuzzParseLog(f *testing.F) {
	f.Add("# darshan log version: aiio-1.0\n# exe: ior\nPOSIX_READS\t3\n")
	f.Add("# jobid: 12\nPOSIX_WRITES\t1e9\nnprocs\t256\n")
	f.Add("")
	f.Add("#")
	f.Add("# exe:")
	f.Add("POSIX_READS\tNaN\n")
	f.Add("POSIX_DUPS\t1\nUNKNOWN_COUNTER\t2\n")
	f.Add("# performance_mibps: 1.5\n# slowest_seconds: 2\n")
	f.Add(strings.Repeat("POSIX_SEEKS\t1\n", 100))
	f.Fuzz(func(t *testing.T, input string) {
		rec, err := ParseLog(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteLog(&buf, rec); err != nil {
			t.Fatalf("WriteLog failed on accepted record: %v", err)
		}
		rec2, err := ParseLog(&buf)
		if err != nil {
			t.Fatalf("re-parse of written log failed: %v", err)
		}
		// Counters must round-trip exactly (metadata strings may be
		// normalized, e.g. whitespace in the app name).
		if rec2.Counters != rec.Counters {
			t.Fatalf("counters changed across round trip")
		}
	})
}

// FuzzParseDatasetLenient is the quarantine-path contract: lenient parsing
// never panics, never returns a hard error for in-memory input, and every
// record it accepts carries only finite, non-negative counters and a
// finite, non-negative performance tag — no matter how hostile the stream.
func FuzzParseDatasetLenient(f *testing.F) {
	one := "# darshan log version: aiio-1.0\n# jobid: 1\n# performance_mibps: 50\nPOSIX_READS\t1\n"
	f.Add(one)
	f.Add(one + "\n" + one)
	f.Add("garbage\n" + one)
	f.Add(one + "# darshan log version: aiio-1.0\nPOSIX_READS\t-3\n")
	f.Add("# darshan log version: aiio-1.0\n# performance_mibps: inf\nPOSIX_WRITES\t2\n")
	f.Add("# darshan log version: aiio-1.0\nPOSIX_READS\tNaN\n")
	f.Add("# darshan log version: aiio-1.0\n# jobid: not-a-number\n")
	f.Fuzz(func(t *testing.T, input string) {
		ds, quarantine, err := ParseDatasetLenient(strings.NewReader(input))
		if err != nil {
			// Only a stream-level failure (e.g. a line past the scanner's
			// 1 MiB cap) may surface here; record-level corruption must not.
			if !strings.Contains(err.Error(), "read log stream") {
				t.Fatalf("unexpected hard error: %v", err)
			}
			return
		}
		for i, rec := range ds.Records {
			if reason := vetRecord(rec); reason != "" {
				t.Fatalf("accepted record %d fails vetting: %s", i, reason)
			}
		}
		for _, q := range quarantine {
			if q.Reason == "" || q.Line <= 0 {
				t.Fatalf("malformed quarantine entry: %+v", q)
			}
		}
		_ = QuarantineSummary(ds.Len(), quarantine)
	})
}

// FuzzParseDataset checks the multi-record splitter.
func FuzzParseDataset(f *testing.F) {
	one := "# darshan log version: aiio-1.0\n# jobid: 1\nPOSIX_READS\t1\n"
	f.Add(one)
	f.Add(one + "\n" + one)
	f.Add("garbage\n" + one)
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ParseDataset(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDataset(&buf, ds); err != nil {
			t.Fatalf("WriteDataset failed: %v", err)
		}
		ds2, err := ParseDataset(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if ds2.Len() != ds.Len() {
			t.Fatalf("record count changed: %d -> %d", ds.Len(), ds2.Len())
		}
	})
}

// FuzzParseMatchesReference holds the streaming decoder to the two-pass
// parser it replaced (logio_reference_test.go): on every input, ParseLog,
// ParseDataset and ParseDatasetLenient return bitwise the reference's
// records, its error text and its quarantine. Two rules are new, and there
// the target asserts them instead: ParseLog rejects a body whose version
// header opens a second record, and a dataset's comment-only preamble is no
// record.
func FuzzParseMatchesReference(f *testing.F) {
	one := "# darshan log version: aiio-1.0\n# exe: ior\n# jobid: 1\n# performance_mibps: 50\nPOSIX_READS\t4\nPOSIX_SIZE_READ_0_100\t4\n"
	two := "# darshan log version: aiio-1.0\n# exe: b\n# jobid: 2\nPOSIX_WRITES\t7\n"
	f.Add(one + "\n" + two)
	// CRLF line ends.
	f.Add(strings.ReplaceAll(one+"\n"+two, "\n", "\r\n"))
	// A space, not a tab; an NBSP as a separator and inside a value.
	f.Add(strings.Replace(one, "POSIX_READS\t4", "POSIX_READS 4", 1))
	f.Add(strings.Replace(one, "POSIX_READS\t4", "POSIX_READS\u00a04", 1))
	f.Add(strings.Replace(one, "# exe: ior", "# exe: i\u00a0or\u00a0", 1))
	// A NEL separator; bytes that are not UTF-8.
	f.Add(strings.Replace(one, "POSIX_READS\t4", "POSIX_READS\u00854", 1))
	f.Add(strings.Replace(one, "POSIX_READS\t4", "POSIX_\xe2\x80READS \xff4\xc2", 1))
	// A line over 1 MiB.
	f.Add(one + "# " + strings.Repeat("x", 1<<20) + "\n" + two)
	// A version header in the middle of a record; an indented one.
	f.Add("# darshan log version: aiio-1.0\n# exe: a\nPOSIX_READS\tbad\n# darshan log version: aiio-1.0\n" + two)
	f.Add(" " + one + " " + two)
	// Unknown counters.
	f.Add(one + "POSIX_FUTURE_COUNTER\t9\nPOSIX_DUPS 3\n")
	// A first record with no version header.
	f.Add("# exe: first\nPOSIX_READS\t1\n" + one)
	// A comment preamble; one with a bad header.
	f.Add("# produced by site-sweep v2\n" + one + "\n" + two)
	f.Add("# jobid: bad\n\n" + one)
	f.Fuzz(func(t *testing.T, input string) {
		rec, err := ParseLog(strings.NewReader(input))
		if n, end := secondRecordLine(input); n == 0 {
			wantRec, wantErr := refParseLog(strings.NewReader(input))
			checkRecord(t, "ParseLog", rec, err, wantRec, wantErr)
		} else if _, wantErr := refParseLog(strings.NewReader(input[:end])); wantErr != nil {
			checkRecord(t, "ParseLog", rec, err, nil, wantErr)
		} else if !errors.Is(err, ErrSecondRecord) || err.Error() != fmt.Sprintf("darshan: line %d: %v", n, ErrSecondRecord) {
			t.Fatalf("ParseLog on a body whose line %d opens a second record: err = %v", n, err)
		}

		ref := blankPreamble(input)
		ds, err := ParseDataset(strings.NewReader(input))
		wantDS, wantErr := refParseDataset(strings.NewReader(ref))
		checkDataset(t, "ParseDataset", ds, err, wantDS, wantErr)

		ds, quarantine, err := ParseDatasetLenient(strings.NewReader(input))
		wantDS, wantQuarantine, wantErr := refParseDatasetLenient(strings.NewReader(ref))
		checkDataset(t, "ParseDatasetLenient", ds, err, wantDS, wantErr)
		if !reflect.DeepEqual(quarantine, wantQuarantine) {
			t.Fatalf("ParseDatasetLenient quarantine = %+v, want %+v", quarantine, wantQuarantine)
		}
	})
}

// scanLines splits input into its lines as bufio.ScanLines does, but keeps
// a line's trailing carriage return, with the offset just past each line
// and its newline.
func scanLines(input string) (lines []string, ends []int) {
	for off := 0; off < len(input); {
		n := strings.IndexByte(input[off:], '\n')
		if n < 0 {
			n = len(input) - off
		}
		lines = append(lines, input[off:off+n])
		off = min(off+n+1, len(input))
		ends = append(ends, off)
	}
	return lines, ends
}

// refCounterLine is the reference parser's counter line: neither blank nor
// a # comment.
func refCounterLine(line string) bool {
	line = strings.TrimSpace(line)
	return line != "" && !strings.HasPrefix(line, "#")
}

// secondRecordLine returns the 1-based number of the line whose version
// header opens a second record, after a version header or a counter line,
// and the offset just past that line; 0 if there is none.
func secondRecordLine(input string) (line, end int) {
	lines, ends := scanLines(input)
	content := false
	for i, l := range lines {
		if strings.HasPrefix(l, versionHeader) {
			if content {
				return i + 1, ends[i]
			}
			content = true
		}
		content = content || refCounterLine(l)
	}
	return 0, 0
}

// blankPreamble returns input with its preamble, the lines before the first
// version header when none of them is a counter line, blanked: the
// reference parser skips a chunk of blank lines, and line numbers stay put.
// A preamble with a line too long for the scanner is kept, for the read
// fails on that line before any record ends.
func blankPreamble(input string) string {
	lines, ends := scanLines(input)
	k := 0
	for ; k < len(lines) && !strings.HasPrefix(lines[k], versionHeader); k++ {
		if refCounterLine(lines[k]) || len(lines[k]) >= maxLine {
			return input
		}
	}
	if k == 0 {
		return input
	}
	return strings.Repeat("\n", k) + input[ends[k-1]:]
}

func checkRecord(t *testing.T, name string, got *Record, err error, want *Record, wantErr error) {
	t.Helper()
	checkErr(t, name, err, wantErr)
	if err == nil && !sameRecord(got, want) {
		t.Fatalf("%s = %+v, want %+v", name, got, want)
	}
}

func checkDataset(t *testing.T, name string, got *Dataset, err error, want *Dataset, wantErr error) {
	t.Helper()
	checkErr(t, name, err, wantErr)
	if err != nil {
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s found %d records, want %d", name, got.Len(), want.Len())
	}
	for i := range got.Records {
		if !sameRecord(got.Records[i], want.Records[i]) {
			t.Fatalf("%s record %d = %+v, want %+v", name, i, got.Records[i], want.Records[i])
		}
	}
}

func checkErr(t *testing.T, name string, err, want error) {
	t.Helper()
	if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
		t.Fatalf("%s error = %v, want %v", name, err, want)
	}
}

// sameRecord compares every field, floats by their bits.
func sameRecord(a, b *Record) bool {
	if a.JobID != b.JobID || a.App != b.App || a.Year != b.Year ||
		math.Float64bits(a.PerfMiBps) != math.Float64bits(b.PerfMiBps) ||
		math.Float64bits(a.SlowestSeconds) != math.Float64bits(b.SlowestSeconds) {
		return false
	}
	for i := range a.Counters {
		if math.Float64bits(a.Counters[i]) != math.Float64bits(b.Counters[i]) {
			return false
		}
	}
	return true
}
