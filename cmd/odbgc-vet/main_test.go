package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageError(t *testing.T) {
	for _, args := range [][]string{nil, {"a.cfg", "b.cfg"}, {"notacfg"}} {
		var stdout, stderr bytes.Buffer
		findings, err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "usage:") {
			t.Errorf("run(%v): err = %v, want usage error", args, err)
		}
		if findings {
			t.Errorf("run(%v): reported findings on a usage error", args)
		}
	}
}

func TestFlagsMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	findings, err := run([]string{"-flags"}, &stdout, &stderr)
	if err != nil || findings {
		t.Fatalf("-flags: findings=%v err=%v", findings, err)
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("-flags printed %q, want []", got)
	}
}

func TestVersionMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	findings, err := run([]string{"-V=full"}, &stdout, &stderr)
	if err != nil || findings {
		t.Fatalf("-V=full: findings=%v err=%v", findings, err)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "odbgc-vet version devel") || !strings.Contains(out, "buildID=") {
		t.Errorf("-V=full printed %q, want a cmd/go-compatible version line", out)
	}
}

// Driver errors must come back as errors naming the offending cfg file
// or package, never via log.Fatal (which would bypass main's exit-code
// split between findings and failures).
func TestBadConfigNamed(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "missing.cfg")
	var stdout, stderr bytes.Buffer
	if _, err := run([]string{missing}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "missing.cfg") {
		t.Errorf("missing cfg: err = %v, want error naming the file", err)
	}

	garbage := filepath.Join(dir, "garbage.cfg")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{garbage}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "garbage.cfg") {
		t.Errorf("garbage cfg: err = %v, want error naming the file", err)
	}

	empty := filepath.Join(dir, "empty.cfg")
	if err := os.WriteFile(empty, []byte(`{"ImportPath":"example.com/p"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{empty}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "example.com/p") {
		t.Errorf("no-files cfg: err = %v, want error naming the package", err)
	}
}

// VetxOnly units must succeed without analyzing anything, writing the
// facts file the go command asked for.
func TestVetxOnly(t *testing.T) {
	dir := t.TempDir()
	vetx := filepath.Join(dir, "out.vetx")
	cfg := filepath.Join(dir, "unit.cfg")
	body := `{"ImportPath":"example.com/p","GoFiles":["` + filepath.ToSlash(filepath.Join(dir, "absent.go")) + `"],"VetxOnly":true,"VetxOutput":"` + filepath.ToSlash(vetx) + `"}`
	if err := os.WriteFile(cfg, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	findings, err := run([]string{cfg}, &stdout, &stderr)
	if err != nil || findings {
		t.Fatalf("VetxOnly unit: findings=%v err=%v", findings, err)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file not written: %v", err)
	}
}

// writeUnit writes src as the one file of package example.com/p plus the
// unit.cfg describing it, and returns the cfg path and the source path.
// The package imports nothing, so the unit needs no export data.
func writeUnit(t *testing.T, src string) (cfg, file string) {
	t.Helper()
	dir := t.TempDir()
	file = filepath.Join(dir, "p.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = filepath.Join(dir, "unit.cfg")
	body := `{"ImportPath":"example.com/p","Compiler":"gc","GoFiles":["` + filepath.ToSlash(file) + `"],"VetxOutput":"` + filepath.ToSlash(filepath.Join(dir, "out.vetx")) + `"}`
	if err := os.WriteFile(cfg, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfg, file
}

// TestStaleSuppressionReported plants an //odbgc:alloc-ok that no
// diagnostic needs beside one that suppresses a real hot-path
// allocation: only the planted one is reported, naming its line.
func TestStaleSuppressionReported(t *testing.T) {
	cfg, file := writeUnit(t, `package p

// grow is a hot path with one vetted allocation.
//
//odbgc:hotpath
func grow(xs []int) []int {
	return append(xs, 1) //odbgc:alloc-ok amortized growth
}

func plain() int {
	return 1 //odbgc:alloc-ok planted: nothing here allocates
}
`)
	var stdout, stderr bytes.Buffer
	findings, err := run([]string{cfg}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !findings {
		t.Fatalf("planted stale suppression not reported; stderr:\n%s", stderr.String())
	}
	want := file + ":11: stale: //odbgc:alloc-ok"
	if got := stderr.String(); !strings.Contains(got, want) || strings.Count(got, "\n") != 1 {
		t.Errorf("stderr = %q, want exactly one finding containing %q", got, want)
	}
}
