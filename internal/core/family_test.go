package core

import (
	"bytes"
	"math"
	"os"
	"slices"
	"testing"
)

// TestFamilyTable checks every entry of the family table against the model
// a Fast fit of it produces: the table names exactly the five models, a
// Save → LoadModel round trip under the entry's kind keeps the name, the
// kind and every prediction bit, and TreeModel sees a tree ensemble exactly
// for the gbdt kind.
func TestFamilyTable(t *testing.T) {
	frame, ens, _ := fixture(t)
	var names []string
	for _, f := range families {
		names = append(names, f.name)
	}
	sorted, want := slices.Clone(names), ModelNames()
	slices.Sort(sorted)
	slices.Sort(want)
	if !slices.Equal(sorted, want) {
		t.Fatalf("family table names %v, want the five models %v", names, want)
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			m := ens.Model(f.name)
			if m == nil {
				t.Fatal("the fixture ensemble has no such model")
			}
			if m.Name() != f.name || m.Kind() != f.kind {
				t.Fatalf("trained model is %s/%s, want %s/%s", m.Name(), m.Kind(), f.name, f.kind)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadModel(f.name, f.kind, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Name() != f.name || loaded.Kind() != f.kind {
				t.Fatalf("loaded model is %s/%s, want %s/%s", loaded.Name(), loaded.Kind(), f.name, f.kind)
			}
			got, want := loaded.PredictBatch(frame.X), m.PredictBatch(frame.X)
			for r := range want {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("row %d: %v after the round trip, %v before", r, got[r], want[r])
				}
			}
			if _, ok := TreeModel(loaded); ok != (f.kind == kindGBDT) {
				t.Fatalf("TreeModel ok = %v for kind %s", ok, f.kind)
			}
		})
	}
}

// TestLoadModelKeepsGivenName: a model decoded under a new name is a new
// model, not a second one named after its kind.
func TestLoadModelKeepsGivenName(t *testing.T) {
	_, ens, _ := fixture(t)
	var buf bytes.Buffer
	if err := ens.Model(NameMLP).Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel("mlp-v2", kindMLP, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "mlp-v2" || m.Kind() != kindMLP {
		t.Fatalf("loaded as %s/%s, want mlp-v2/%s", m.Name(), m.Kind(), kindMLP)
	}
	if _, err := LoadModel("x", "forest", &buf); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestStartOrderFollowsTable: whatever order the models are requested in,
// their fits start in the table's order.
func TestStartOrderFollowsTable(t *testing.T) {
	reversed := ModelNames()
	slices.Reverse(reversed)
	for _, names := range [][]string{ModelNames(), reversed, {NameXGBoost, NameMLP, NameCatBoost}} {
		var started []string
		for _, i := range startOrder(names) {
			started = append(started, names[i])
		}
		var want []string
		for _, f := range families {
			if slices.Contains(names, f.name) {
				want = append(want, f.name)
			}
		}
		if !slices.Equal(started, want) {
			t.Errorf("%v: fits start %v, want %v", names, started, want)
		}
	}
}

// TestSaveRefusesRepeatedName: a store writes each model to a file named
// after it, so an ensemble with two models of one name is refused before
// anything is written.
func TestSaveRefusesRepeatedName(t *testing.T) {
	_, ens, _ := fixture(t)
	m := ens.Model(NameMLP)
	dir := t.TempDir()
	if _, err := OpenStore(dir).Save(&Ensemble{Models: []Model{m, ens.Model(NameXGBoost), m}}); err == nil {
		t.Fatal("an ensemble with two models named mlp was saved")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("store directory after the refused save: %v, %v", entries, err)
	}
}

// TestSaveRefusesPathInModelName: a model's name becomes its file name in
// the generation directory, so a name that is not a plain file name is
// refused before anything is written.
func TestSaveRefusesPathInModelName(t *testing.T) {
	_, ens, _ := fixture(t)
	inner := ens.Model(NameXGBoost).(*model)
	for _, name := range []string{"../../evil", "..", ".", "a/b", `a\b`, ""} {
		dir := t.TempDir()
		hostile := &model{inner.predictor, name, inner.kind}
		if _, err := OpenStore(dir).Save(&Ensemble{Models: []Model{hostile}}); err == nil {
			t.Fatalf("a model named %q was saved", name)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("store directory after refusing %q: %v, %v", name, entries, err)
		}
	}
}
