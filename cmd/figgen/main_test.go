package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestRunSingleFigure(t *testing.T) {
	if err := run(io.Discard, "5", true, 1, 0, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithASCII(t *testing.T) {
	if err := run(io.Discard, "6", true, 1, 0, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelWorkers(t *testing.T) {
	if err := run(io.Discard, "4", true, 1, 4, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, "42", true, 1, 0, false); err == nil {
		t.Error("unknown figure should fail")
	}
}

// generatedIn matches the per-figure wall-clock annotation, the only part of
// figgen's output that may differ between two runs.
var generatedIn = regexp.MustCompile(` \(generated in [^)]*\)`)

// TestQuickSuiteGolden pins `figgen -fig all -quick -ascii=false`, with the
// wall-clock annotations stripped, byte for byte against
// testdata/figures_quick.tsv: every figure's TSV, in suite order.
func TestQuickSuiteGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", true, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	got := generatedIn.ReplaceAll(buf.Bytes(), nil)

	golden := filepath.Join("..", "..", "testdata", "figures_quick.tsv")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("quick suite diverges from %s at line %d:\n got %q\nwant %q\nrun with -update only after an intended change",
				golden, i+1, g, w)
		}
	}
}
