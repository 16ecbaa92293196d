package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputGolden runs the tour and requires its whole report, the
// three simulated cycle counts included, to equal
// testdata/output.golden. The tour is deterministic, so any difference
// is a change in the planner, the sealed layout, the secure engine or
// the simulator. Regenerate with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/output.golden
func TestOutputGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "output.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("quickstart output differs from testdata/output.golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
