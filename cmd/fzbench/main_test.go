package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "chunked"}, // retired engineering experiment
		{"-json", "x"},      // retired flag
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("fzbench %v exited %d, want 2 (usage error)", args, code)
		}
		if !strings.Contains(stderr.String(), "Usage of fzbench") {
			t.Errorf("fzbench %v: stderr lacks the usage text:\n%s", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("fzbench %v wrote to stdout: %q", args, stdout.String())
		}
	}
}

func TestRunsOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "secondary"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if got := strings.Count(stdout.String(), "====="); got != 2 {
		t.Errorf("want exactly one experiment banner, got output:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "===== secondary =====") {
		t.Errorf("missing banner:\n%s", stdout.String())
	}
}

// TestReproductionDocListsEveryExperiment keeps the three places that name
// the experiments in step: the -exp table (with the flag usage built from
// it), the package comment's usage line, and the section headings of
// docs/REPRODUCTION.md.
func TestReproductionDocListsEveryExperiment(t *testing.T) {
	var accepted []string
	for _, e := range experiments {
		accepted = append(accepted, e.name)
	}
	if len(accepted) != 10 {
		t.Errorf("fzbench accepts %d experiments, want the ten paper experiments: %v", len(accepted), accepted)
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^//\tfzbench \[-exp ([a-z0-9|]+)\]`).FindSubmatch(src)
	if m == nil {
		t.Fatal("main.go package comment has no `fzbench [-exp a|b|...]` usage line")
	}
	comment := strings.Split(string(m[1]), "|")
	if want := append(slices.Clone(accepted), "all"); !slices.Equal(comment, want) {
		t.Errorf("package comment lists %v, fzbench accepts %v", comment, want)
	}

	doc, err := os.ReadFile("../../docs/REPRODUCTION.md")
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, h := range regexp.MustCompile("(?m)^## `([a-z0-9]+)`").FindAllSubmatch(doc, -1) {
		sections = append(sections, string(h[1]))
	}
	if !slices.Equal(sections, accepted) {
		t.Errorf("docs/REPRODUCTION.md has sections %v, fzbench accepts %v", sections, accepted)
	}
}
