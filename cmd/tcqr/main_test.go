package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tcqr/internal/tcsim"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "m.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReadCSVMatrixOnly(t *testing.T) {
	p := writeTemp(t, "1,2\n3,4\n5,6\n")
	a, b, err := readCSV(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		t.Fatal("unexpected rhs")
	}
	if a.Rows != 3 || a.Cols != 2 || a.At(2, 1) != 6 || a.At(1, 0) != 3 {
		t.Fatalf("parsed wrong: %+v", a)
	}
}

func TestReadCSVWithRHS(t *testing.T) {
	p := writeTemp(t, "1,2,10\n3,4,20\n")
	a, b, err := readCSV(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cols != 2 || b == nil || len(b) != 2 || b[1] != 20 {
		t.Fatalf("rhs parsing wrong: %+v %v", a, b)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, _, err := readCSV(writeTemp(t, ""), false); err == nil {
		t.Error("empty file accepted")
	}
	if _, _, err := readCSV(writeTemp(t, "1,x\n"), false); err == nil {
		t.Error("non-numeric field accepted")
	}
	if _, _, err := readCSV(writeTemp(t, "1\n2\n"), true); err == nil {
		t.Error("single column with rhs accepted")
	}
	if _, _, err := readCSV(filepath.Join(t.TempDir(), "missing.csv"), false); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCatalogueSanity(t *testing.T) {
	// Keep btoi honest while it exists.
	if btoi(true) != 1 || btoi(false) != 0 {
		t.Error("btoi")
	}
}

// TestMainExitHelper is the re-exec target for the exit-code tests below:
// when TCQR_MAIN_TEST is set, the test binary runs the real main() with the
// arguments from TCQR_MAIN_ARGS, so os.Exit codes and stderr can be
// observed from the parent process.
func TestMainExitHelper(t *testing.T) {
	if os.Getenv("TCQR_MAIN_TEST") == "" {
		t.Skip("helper for re-exec tests")
	}
	os.Args = append([]string{"tcqr"}, strings.Split(os.Getenv("TCQR_MAIN_ARGS"), "\x1f")...)
	main()
	os.Exit(0)
}

// runMain re-executes the test binary through the helper above and returns
// the exit code and captured stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestMainExitHelper")
	cmd.Env = append(os.Environ(),
		"TCQR_MAIN_TEST=1",
		"TCQR_MAIN_ARGS="+strings.Join(args, "\x1f"))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("re-exec failed: %v", err)
	return -1, ""
}

// TestMalformedInputExitsNonZero: malformed inputs must terminate the CLI
// with a non-zero status and the typed hazard error on stderr — never a
// zero status over garbage output.
func TestMalformedInputExitsNonZero(t *testing.T) {
	nanCSV := writeTemp(t, "1,2\n3,NaN\n5,6\n")
	code, msg := runMain(t, "-op", "qr", "-in", nanCSV)
	if code == 0 {
		t.Fatal("NaN input exited 0")
	}
	if !strings.Contains(msg, "non-finite") {
		t.Errorf("stderr should name the typed error, got: %q", msg)
	}

	// Wide matrix: shape error.
	wide := writeTemp(t, "1,2,3\n4,5,6\n")
	code, msg = runMain(t, "-op", "qr", "-in", wide)
	if code == 0 {
		t.Fatal("wide input exited 0")
	}
	if !strings.Contains(msg, "invalid shape") {
		t.Errorf("stderr should name the shape error, got: %q", msg)
	}

	// Unknown hazard policy flag.
	code, msg = runMain(t, "-op", "qr", "-gen", "-m", "8", "-n", "4", "-on-hazard", "bogus")
	if code == 0 {
		t.Fatal("bogus -on-hazard exited 0")
	}
	if !strings.Contains(msg, "on-hazard") {
		t.Errorf("stderr should mention the flag, got: %q", msg)
	}

	// Unknown engine: the error lists the valid names from the engine table.
	code, msg = runMain(t, "-op", "qr", "-gen", "-m", "8", "-n", "4", "-engine", "fp8")
	if code == 0 {
		t.Fatal("bogus -engine exited 0")
	}
	if !strings.Contains(msg, "-engine") || !strings.Contains(msg, fmt.Sprint(tcsim.Kinds())) {
		t.Errorf("stderr should name the flag and list %s, got: %q", fmt.Sprint(tcsim.Kinds()), msg)
	}

	// Healthy runs exit 0: every table engine by its flag name, and the
	// default.
	for _, k := range tcsim.Kinds() {
		if code, msg = runMain(t, "-op", "qr", "-gen", "-m", "64", "-n", "16", "-cond", "10", "-engine", k.String()); code != 0 {
			t.Fatalf("-engine %s exited %d: %s", k, code, msg)
		}
	}
	if code, msg = runMain(t, "-op", "qr", "-gen", "-m", "64", "-n", "16", "-cond", "10"); code != 0 {
		t.Fatalf("healthy run exited %d: %s", code, msg)
	}
}
