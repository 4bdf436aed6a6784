package darshan_test

import (
	"bytes"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// ingestBody is one ingest POST of the benchmark's ingest_retrain
// workload: 64 logdb jobs (seed 3) in one WriteDataset stream.
func ingestBody(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := darshan.WriteDataset(&buf, logdb.Generate(logdb.GenConfig{Jobs: 64, Seed: 3})); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// parsers are the two dataset entry points: the strict one behind the
// batch diagnosis endpoint, the lenient one behind ingest.
var parsers = []struct {
	name  string
	parse func(body []byte) (*darshan.Dataset, error)
}{
	{"strict", func(body []byte) (*darshan.Dataset, error) {
		return darshan.ParseDataset(bytes.NewReader(body))
	}},
	{"lenient", func(body []byte) (*darshan.Dataset, error) {
		ds, _, err := darshan.ParseDatasetLenient(bytes.NewReader(body))
		return ds, err
	}},
}

func BenchmarkParseDataset(b *testing.B) {
	body := ingestBody(b)
	for _, p := range parsers {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.parse(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParseDatasetAllocCeiling is BenchmarkParseDataset's allocation
// ceiling: at most 4 allocations per record, 256 per 64-job body. The
// streaming decoder makes one for the record and one for its App string,
// plus a handful per stream; the two-pass parser it replaced made 6 922 per
// body, a fresh scanner and 64 KB buffer for every record among them.
func TestParseDatasetAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling; skipped under -short")
	}
	body := ingestBody(t)
	for _, p := range parsers {
		parse := func() {
			if ds, err := p.parse(body); err != nil || ds.Len() != 64 {
				t.Fatalf("%s parse of the ingest body: %v", p.name, err)
			}
		}
		// The quietest of several single runs, as the other ceilings take.
		best := testing.AllocsPerRun(1, parse)
		for i := 0; i < 10; i++ {
			best = min(best, testing.AllocsPerRun(1, parse))
		}
		t.Logf("%s: a 64-job body makes %.0f allocations (ceiling 256)", p.name, best)
		if best > 256 {
			t.Errorf("%s: a 64-job body makes %.0f allocations, want ≤ 256", p.name, best)
		}
	}
}
