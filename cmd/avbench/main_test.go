package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	paper := []string{"rates", "table1", "fig1", "fig2", "fig3", "fig4", "c1", "c2", "c3", "c4", "c5"}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"unknown experiment", []string{"-exp", "nope"}, 2},
		{"zero frames", []string{"-exp", "fig3", "-frames", "0"}, 2},
		{"negative frames", []string{"-exp", "fig3", "-frames", "-1"}, 2},
		{"fig4 at two frames", []string{"-exp", "fig4", "-frames", "2"}, 0},
		{"no -width flag", []string{"-width", "4"}, 2},
		{"no -sessions flag", []string{"-sessions", "4"}, 2},
		{"no -metrics flag", []string{"-metrics"}, 2},
		{"no -trace flag", []string{"-trace"}, 2},
		{"zipf is not an experiment", []string{"-exp", "zipf"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d; stderr:\n%s", tc.args, got, tc.want, stderr.String())
			}
			if tc.name != "list" {
				return
			}
			var names []string
			for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
				names = append(names, strings.Fields(line)[0])
			}
			if strings.Join(names, " ") != strings.Join(paper, " ") {
				t.Errorf("-list names %v, want the paper's %v", names, paper)
			}
		})
	}
}
