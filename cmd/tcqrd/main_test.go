package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"tcqr/internal/tcsim"
)

// TestBadEngineFlagFailsStartup: an unknown -engine stops the daemon before
// it listens, naming the valid engines from the same table as the wire 400.
// The test binary re-executes itself to run the real main().
func TestBadEngineFlagFailsStartup(t *testing.T) {
	if os.Getenv("TCQRD_MAIN_TEST") != "" {
		os.Args = []string{"tcqrd", "-addr", "127.0.0.1:0", "-engine", "fp8"}
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestBadEngineFlagFailsStartup")
	cmd.Env = append(os.Environ(), "TCQRD_MAIN_TEST=1")
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("tcqrd -engine fp8: err=%v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), fmt.Sprint(tcsim.Kinds())) {
		t.Errorf("startup error should list %s, got:\n%s", fmt.Sprint(tcsim.Kinds()), out)
	}
}

// TestFlagsMatchUsageComment: the flags main() registers are exactly the
// flags the package comment's usage block names, so a knob cannot be added
// or removed without its documentation following — and none is a -tsqr-*
// route selector (the daemon has one cold-factorization path). The count is
// pinned so a new knob has to argue its way in (-window was the last to go:
// solves coalesce while they wait for a worker, there is no timer to set).
// The test binary re-executes itself with -h and reads the flag package's
// listing.
func TestFlagsMatchUsageComment(t *testing.T) {
	if os.Getenv("TCQRD_MAIN_TEST") != "" {
		os.Args = []string{"tcqrd", "-h"}
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestFlagsMatchUsageComment")
	cmd.Env = append(os.Environ(), "TCQRD_MAIN_TEST=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tcqrd -h: %v; output:\n%s", err, out)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z][a-z-]*)( |$)`).FindAllStringSubmatch(string(out), -1) {
		registered[m[1]] = true // skips the test binary's own -test.* flags
	}
	if len(registered) != 30 {
		t.Fatalf("%d flags parsed from -h output, want 30:\n%s", len(registered), out)
	}

	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, usage, ok := strings.Cut(file.Doc.Text(), "Usage:\n")
	if !ok {
		t.Fatal("main.go's package comment has no Usage: block")
	}
	usage, _, _ = strings.Cut(usage, "\n\n-") // the block ends where the per-flag prose starts
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`\[-([a-z][a-z-]*)`).FindAllStringSubmatch(usage, -1) {
		documented[m[1]] = true
	}

	for name := range registered {
		if !documented[name] {
			t.Errorf("flag -%s is registered but missing from main.go's usage block", name)
		}
		if strings.HasPrefix(name, "tsqr-") {
			t.Errorf("flag -%s selects a second factorization path", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("main.go's usage block names -%s, which is not a flag", name)
		}
	}
}
