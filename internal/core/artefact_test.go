package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/hpc-repro/aiio/internal/nn"
)

// TestNetArtefactsDecode loads an MLP and a TabNet artefact written by Save
// under an earlier layout of the model structs (one that still carried a
// per-epoch TrainLoss and Config.WarmDriftTol) and checks them against the
// values recorded when they were written: the standardizer fields exactly,
// and Predict on the probe rows within 1e-12 relative. Gob matches fields
// by name and zero-fills a missing one without an error, so a standardizer
// field that moved — into a nested struct, say — fails here, not at decode.
func TestNetArtefactsDecode(t *testing.T) {
	for _, kind := range []string{NameMLP, NameTabNet} {
		t.Run(kind, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", kind+".gob"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			m, err := LoadModel(kind, kind, f)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join("testdata", kind+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want struct {
				nn.Standardizer
				Probe   [][]float64
				Predict []float64
			}
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			var got nn.Standardizer
			if n, ok := MLPModel(m); ok {
				got = nn.Standardizer{Mean: n.Mean, Std: n.Std, ConstantCols: n.ConstantCols, YMean: n.YMean, YStd: n.YStd}
			} else if n, ok := TabNetModel(m); ok {
				got = nn.Standardizer{Mean: n.Mean, Std: n.Std, ConstantCols: n.ConstantCols, YMean: n.YMean, YStd: n.YStd}
			}
			if !reflect.DeepEqual(got, want.Standardizer) {
				t.Fatalf("decoded standardizer %+v, recorded %+v", got, want.Standardizer)
			}
			for i, row := range want.Probe {
				if p, w := m.Predict(row), want.Predict[i]; math.Abs(p-w) > 1e-12*math.Abs(w) {
					t.Errorf("probe %d: Predict %v, recorded %v", i, p, w)
				}
			}
		})
	}
}
