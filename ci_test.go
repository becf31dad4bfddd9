package avdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatch reads the CI workflow and fails for each -run,
// -bench or -fuzz alternative of a go test command that names no test
// function of the command's packages, so a renamed or deleted test
// cannot silently drop out of a stress, benchmark or fuzz step.  As go
// test does, a pattern splits into alternatives on top-level '|', and an
// alternative into per-level patterns on '/'; the first level must match
// a Test, Fuzz or Example func (-run), a Benchmark func (-bench) or a
// Fuzz func (-fuzz).  Subtest levels are not checked.
func TestCIRunPatternsMatch(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	data, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{
		"-run":   {"Test", "Fuzz", "Example"},
		"-bench": {"Benchmark"},
		"-fuzz":  {"Fuzz"},
	}
	checked := 0
	step := ""
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if name, ok := strings.CutPrefix(trimmed, "- name:"); ok {
			step = strings.Trim(strings.TrimSpace(name), `"`)
			continue
		}
		for _, cmd := range goTestCommands(trimmed) {
			if len(cmd.patterns) == 0 {
				continue
			}
			funcs := testFuncs(t, cmd.pkgs)
			for flag, pattern := range cmd.patterns {
				if pattern == "^$" {
					continue
				}
				for _, alt := range splitTopLevel(pattern, '|') {
					top := splitTopLevel(alt, '/')[0]
					re, err := regexp.Compile(top)
					if err != nil {
						t.Errorf("step %q: %s pattern %q: %v", step, flag, top, err)
						continue
					}
					if !matchesAny(re, funcs, kinds[flag]) {
						t.Errorf("step %q: %s alternative %q matches no %s func in %s",
							step, flag, top, strings.Join(kinds[flag], " or "), strings.Join(cmd.pkgs, " "))
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s: found no go test command with -run, -bench or -fuzz", workflow)
	}
}

// goTestCommand is one go test invocation: its -run/-bench/-fuzz
// patterns by flag, and its package directories.
type goTestCommand struct {
	patterns map[string]string
	pkgs     []string
}

// goTestCommands parses the go test invocations of one workflow line,
// which may chain several commands with && or ;.  Patterns hold no
// blanks, so a quoted pattern is one word.
func goTestCommands(line string) []goTestCommand {
	var cmds []goTestCommand
	var cur *goTestCommand
	words := strings.Fields(line)
	for i := range words {
		words[i] = strings.Trim(words[i], `'"`)
	}
	for i := 0; i < len(words); i++ {
		w := words[i]
		switch {
		case w == "&&" || w == ";" || w == "||" || w == "|":
			cur = nil
		case w == "go" && i+1 < len(words) && words[i+1] == "test":
			cmds = append(cmds, goTestCommand{patterns: make(map[string]string)})
			cur = &cmds[len(cmds)-1]
			i++
		case cur == nil:
		case w == "-run" || w == "-bench" || w == "-fuzz":
			if i+1 < len(words) {
				cur.patterns[w] = words[i+1]
				i++
			}
		case strings.HasPrefix(w, "./"):
			cur.pkgs = append(cur.pkgs, w)
		}
	}
	return cmds
}

// splitTopLevel splits a test pattern on sep outside brackets and
// parentheses, as go test does.
func splitTopLevel(s string, sep byte) []string {
	var parts []string
	brackets, parens, start := 0, 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			brackets++
		case ']':
			if brackets > 0 {
				brackets--
			}
		case '(':
			if brackets == 0 {
				parens++
			}
		case ')':
			if brackets == 0 && parens > 0 {
				parens--
			}
		case '\\':
			i++
		case sep:
			if brackets == 0 && parens == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// testFuncs returns the top-level func names declared in the _test.go
// files of the package directories.
func testFuncs(t *testing.T, dirs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// matchesAny reports whether re matches a func name that has one of the
// prefixes.
func matchesAny(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, name := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
