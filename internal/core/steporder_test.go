package core

import (
	"io"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRegistryDurableStepOrder pins the exact hook steps, in order, of one
// Save, one ImportGeneration and one Restore. Around those steps the
// file system sees, per operation:
//
//   - Save: per model, model-write → create + write the .gob in the temp
//     directory → model-sync → fsync it; manifest-write → write + fsync
//     manifest.json; gen-commit → rename .tmp-N to generations/N → fsync
//     generations/; current-commit → write + fsync .tmp-CURRENT → rename
//     it to CURRENT → fsync the store directory.
//   - ImportGeneration: per model, model-write → stream + fsync the file
//     (no model-sync step); then the same manifest, gen-commit and
//     current-commit sequence as Save.
//   - Restore: the same steps as ImportGeneration, copying the files from
//     the restored generation's directory.
func TestRegistryDurableStepOrder(t *testing.T) {
	_, ens, _ := fixture(t)
	peer := saveGenerations(t, ens, 1)
	peerMan, err := peer.Manifest(1)
	if err != nil {
		t.Fatal(err)
	}
	st := OpenStore(t.TempDir())
	var got []string
	st.SetHook(func(step, path string) error {
		rel, err := filepath.Rel(st.dir, path)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, step+" "+filepath.ToSlash(rel))
		return nil
	})
	check := func(op string, want []string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s steps:\n got %q\nwant %q", op, got, want)
		}
		got = nil
	}

	if _, err := st.Save(ens); err != nil {
		t.Fatal(err)
	}
	check("Save", []string{
		"model-write generations/.tmp-000001/xgboost.gob",
		"model-sync generations/.tmp-000001/xgboost.gob",
		"model-write generations/.tmp-000001/lightgbm.gob",
		"model-sync generations/.tmp-000001/lightgbm.gob",
		"model-write generations/.tmp-000001/catboost.gob",
		"model-sync generations/.tmp-000001/catboost.gob",
		"model-write generations/.tmp-000001/mlp.gob",
		"model-sync generations/.tmp-000001/mlp.gob",
		"model-write generations/.tmp-000001/tabnet.gob",
		"model-sync generations/.tmp-000001/tabnet.gob",
		"manifest-write generations/.tmp-000001/manifest.json",
		"gen-commit generations/000001",
		"current-commit CURRENT",
	})

	fetch := func(file string) (io.ReadCloser, error) { return peer.OpenModelFile(1, file) }
	if _, err := st.ImportGeneration(peerMan, fetch); err != nil {
		t.Fatal(err)
	}
	check("ImportGeneration", []string{
		"model-write generations/.tmp-000002/xgboost.gob",
		"model-write generations/.tmp-000002/lightgbm.gob",
		"model-write generations/.tmp-000002/catboost.gob",
		"model-write generations/.tmp-000002/mlp.gob",
		"model-write generations/.tmp-000002/tabnet.gob",
		"manifest-write generations/.tmp-000002/manifest.json",
		"gen-commit generations/000002",
		"current-commit CURRENT",
	})

	if _, err := st.Restore(1); err != nil {
		t.Fatal(err)
	}
	check("Restore", []string{
		"model-write generations/.tmp-000003/xgboost.gob",
		"model-write generations/.tmp-000003/lightgbm.gob",
		"model-write generations/.tmp-000003/catboost.gob",
		"model-write generations/.tmp-000003/mlp.gob",
		"model-write generations/.tmp-000003/tabnet.gob",
		"manifest-write generations/.tmp-000003/manifest.json",
		"gen-commit generations/000003",
		"current-commit CURRENT",
	})
}
