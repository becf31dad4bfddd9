package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avdb/internal/media"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases enumerates every deterministic rendition of the paper's
// table and figures.  Seeds and frame counts are pinned: the whole
// point is that the same inputs render the same bytes on every machine,
// every run.
func goldenCases(t *testing.T) map[string]func() (fmt.Stringer, error) {
	t.Helper()
	return map[string]func() (fmt.Stringer, error){
		"table1": func() (fmt.Stringer, error) { return Table1() },
		"fig1":   func() (fmt.Stringer, error) { return Fig1() },
		"fig2":   func() (fmt.Stringer, error) { return Fig2(60) },
		"fig3":   func() (fmt.Stringer, error) { return Fig3(60) },
		"fig4":   func() (fmt.Stringer, error) { return Fig4(30, 320, 240, 10*media.MBPerSecond) },
	}
}

// TestGoldenFilesHaveCases fails on an orphaned golden: a file under
// testdata/ that no goldenCases entry renders would otherwise pass
// silently forever.
func TestGoldenFilesHaveCases(t *testing.T) {
	cases := goldenCases(t)
	files, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name, ok := strings.CutSuffix(f.Name(), ".golden")
		if _, covered := cases[name]; !ok || !covered {
			t.Errorf("testdata/%s has no goldenCases entry", f.Name())
		}
	}
}

// TestGoldenRenditions locks every experiment's rendered output to a
// checked-in golden file.  Regenerate intentionally with
//
//	go test ./internal/experiment -run TestGoldenRenditions -update
//
// and review the diff like any other code change.
func TestGoldenRenditions(t *testing.T) {
	for name, run := range goldenCases(t) {
		t.Run(name, func(t *testing.T) {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			got := res.String()
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s", name, path, got, want)
			}
		})
	}
}

// TestGoldenRenditionsStable guards the guard: each experiment run twice
// in-process must render identical bytes, otherwise the golden files
// would flap regardless of code changes.
func TestGoldenRenditionsStable(t *testing.T) {
	for name, run := range goldenCases(t) {
		t.Run(name, func(t *testing.T) {
			a, err := run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Errorf("%s renders differently across two identical runs", name)
			}
		})
	}
}
