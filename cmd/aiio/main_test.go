package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/workload"
)

// TestCLIPipeline drives the full CLI flow in-process: generate a database,
// train a registry, simulate a job log, diagnose it with advice and rules.
func TestCLIPipeline(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.darshan")
	models := filepath.Join(dir, "models")

	if err := cmdGenDB([]string{"-jobs", "400", "-seed", "3", "-o", db}); err != nil {
		t.Fatalf("gen-db: %v", err)
	}
	if fi, err := os.Stat(db); err != nil || fi.Size() == 0 {
		t.Fatalf("database file missing: %v", err)
	}

	if err := cmdTrain([]string{"-db", db, "-models", models, "-fast", "-seed", "3"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(filepath.Join(models, "generations", "000001", "manifest.json")); err != nil {
		t.Fatalf("generation manifest missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(models, "CURRENT")); err != nil {
		t.Fatalf("CURRENT pointer missing: %v", err)
	}

	// Produce a job log with the flag-compatible IOR simulator path used by
	// cmd/iorsim (reuse the library to avoid exec).
	logPath := filepath.Join(dir, "job.darshan")
	if err := writeTestJobLog(logPath); err != nil {
		t.Fatalf("write job log: %v", err)
	}

	if err := cmdDiagnose([]string{"-models", models, "-log", logPath,
		"-advise", "-rules", "-top", "5"}); err != nil {
		t.Fatalf("diagnose: %v", err)
	}
	if err := cmdDiagnose([]string{"-models", models, "-log", logPath,
		"-explainer", "kernel"}); err != nil {
		t.Fatalf("diagnose kernel: %v", err)
	}
}

// TestCLILenientLoad corrupts a record of an on-disk database and checks
// the strict load refuses it while -lenient quarantines and proceeds.
func TestCLILenientLoad(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.darshan")
	if err := cmdGenDB([]string{"-jobs", "20", "-seed", "5", "-o", db}); err != nil {
		t.Fatalf("gen-db: %v", err)
	}
	f, err := os.OpenFile(db, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n# darshan log version: aiio-1.0\nPOSIX_READS\tNaN\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := loadDB(db, false); err == nil {
		t.Error("strict load accepted a corrupt database")
	}
	ds, err := loadDB(db, true)
	if err != nil {
		t.Fatalf("lenient load: %v", err)
	}
	if ds.Len() != 20 {
		t.Errorf("lenient load kept %d records, want 20", ds.Len())
	}
}

func TestCLIErrors(t *testing.T) {
	if err := cmdDiagnose([]string{}); err == nil {
		t.Error("diagnose without -log accepted")
	}
	if err := cmdDiagnose([]string{"-log", "does-not-exist", "-models", "nope"}); err == nil {
		t.Error("diagnose with missing registry accepted")
	}
	if err := cmdTrain([]string{"-db", "does-not-exist"}); err == nil {
		t.Error("train with missing db accepted")
	}
	if err := cmdExperiment([]string{"-id", "bogus"}); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestCLIExperimentTable3(t *testing.T) {
	// table3 is the only experiment cheap enough for a unit test (no
	// training); it exercises the experiment dispatch path.
	if err := cmdExperiment([]string{"-id", "table3"}); err != nil {
		t.Fatalf("experiment table3: %v", err)
	}
}

// writeTestJobLog produces a small slow-job Darshan log on disk.
func writeTestJobLog(path string) error {
	cfg, err := workload.ParseIORFlags("ior -w -t 1k -b 256k -Y")
	if err != nil {
		return err
	}
	cfg.NProcs = 8
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	rec, _ := cfg.Run("ior", 1, 9, params)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return darshan.WriteLog(f, rec)
}
