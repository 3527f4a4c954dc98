package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestFlagsMatchREADME keeps the daemon's flag set and the README's flag
// list the same ten names.
func TestFlagsMatchREADME(t *testing.T) {
	var defined []string
	flagSet(&options{}).VisitAll(func(f *flag.Flag) { defined = append(defined, "-"+f.Name) })
	if len(defined) != 10 {
		t.Errorf("fzmodd defines %d flags, want 10: %v", len(defined), defined)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)`fzmodd` flags: (.*?)\\(").FindSubmatch(readme)
	if m == nil {
		t.Fatal("README has no \"`fzmodd` flags:\" list")
	}
	var listed []string
	for _, f := range regexp.MustCompile("`(-[a-z-]+)`").FindAllSubmatch(m[1], -1) {
		listed = append(listed, string(f[1]))
	}
	slices.Sort(listed) // VisitAll walks in name order
	if !slices.Equal(listed, defined) {
		t.Errorf("README lists %v\nfzmodd defines %v", listed, defined)
	}
}

// TestUsageErrors: a retired flag is a usage error (main exits 2 on it),
// not silently accepted.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-batch-wait", "1ms"},
		{"-batch-threshold", "-1"},
		{"-max-wait", "soon"},
	} {
		var stderr bytes.Buffer
		if _, err := parseArgs(args, &stderr); err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("fzmodd %v: error %v, want a usage error", args, err)
		}
		if !strings.Contains(stderr.String(), "Usage of fzmodd") {
			t.Errorf("fzmodd %v: stderr lacks the usage text:\n%s", args, stderr.String())
		}
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"-workers", "3", "-cache-mb", "2", "-max-wait", "-1s", "-listen", ":0"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Workers != 3 || o.cfg.CacheBytes != 2<<20 || o.cfg.MaxBodyBytes != 1024<<20 ||
		o.cfg.MaxWait != -time.Second || o.cfg.MaxQueue != 64 || o.listen != ":0" || o.drainWait != 10*time.Second {
		t.Errorf("parsed %+v", o)
	}
}
