package main

import (
	"os"
	"path/filepath"
	"testing"

	"temporalrank/internal/gen"
	"temporalrank/internal/tsio"
)

func writeFixture(t *testing.T, binary bool) string {
	t.Helper()
	ds, err := gen.Temp(gen.TempConfig{M: 15, Navg: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	name := "q.csv"
	if binary {
		name = "q.trk"
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if binary {
		err = tsio.WriteBinary(f, ds)
	} else {
		err = tsio.WriteCSV(f, ds)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunQueryCSV(t *testing.T) {
	path := writeFixture(t, false)
	for _, method := range []string{"EXACT1", "EXACT3", "APPX2"} {
		if err := run(path, method, 5, 50, 150, 30, 10, true); err != nil {
			t.Errorf("%s: %v", method, err)
		}
	}
}

func TestRunQueryBinaryDefaultInterval(t *testing.T) {
	path := writeFixture(t, true)
	// t2 <= t1 triggers the default-interval path.
	if err := run(path, "EXACT3", 3, 0, 0, 30, 10, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunQueryErrors(t *testing.T) {
	if err := run("", "EXACT3", 5, 0, 1, 30, 10, false); err == nil {
		t.Error("missing -data accepted")
	}
	if err := run("/nonexistent/file", "EXACT3", 5, 0, 1, 30, 10, false); err == nil {
		t.Error("missing file accepted")
	}
	path := writeFixture(t, false)
	if err := run(path, "NOPE", 5, 0, 1, 30, 10, false); err == nil {
		t.Error("unknown method accepted")
	}
}
