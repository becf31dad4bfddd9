package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/script.golden from the current output")

// script exercises every read-only command over the demo database: a
// query, an object, the devices, a traced playback, QBPE, the engine,
// the storage tiers, the metric registry and the schema.
const script = `select SimpleNewscast where title contains "News"; show 2; devices; trace 2; similar 1; sessions; tiers; stats; classes; class SimpleNewscast`

// TestScriptGolden runs the script as -c does and compares what it
// prints with testdata/script.golden.  Regenerate the golden with
// go test ./cmd/avdbsh -run TestScriptGolden -update.
func TestScriptGolden(t *testing.T) {
	db, err := demoDatabase()
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() {
		for _, cmd := range strings.Split(script, ";") {
			if err := execute(db, strings.TrimSpace(cmd)); err != nil {
				t.Errorf("%s: %v", cmd, err)
			}
		}
	})
	golden := filepath.Join("testdata", "script.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}

// TestExecuteErrors: unknown commands and bad arguments fail without
// printing a result.
func TestExecuteErrors(t *testing.T) {
	db, err := demoDatabase()
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"frobnicate", "show x", "show 99", "class Nope", "sessions -top 0", "select Nope"} {
		if out := captureStdout(t, func() {
			if err := execute(db, cmd); err == nil {
				t.Errorf("%q succeeded", cmd)
			}
		}); len(out) != 0 {
			t.Errorf("%q printed %q", cmd, out)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() {
		os.Stdout = saved
	}()
	fn()
	w.Close()
	return <-done
}
