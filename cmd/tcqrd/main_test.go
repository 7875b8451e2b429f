package main

import (
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"tcqr/internal/faultinject"
	"tcqr/internal/serve"
)

// registeredFlags returns the flags main() registers: the test binary
// re-executes itself into TestFlagsMatchUsageComment's child branch, which
// runs the real main() with -h, and reads the flag package's listing.
func registeredFlags(t *testing.T) map[string]bool {
	t.Helper()
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
	return registered
}

// TestFlagsMatchUsageComment: the flags main() registers are exactly the
// flags the package comment's usage block names, so a knob cannot be added
// or removed without its documentation following — and none is a -tsqr-*
// route selector (the daemon has one cold-factorization path). The count is
// pinned so a new knob has to argue its way in (the -engine default was the
// last to go: a request's engine is the one it names, on every node).
func TestFlagsMatchUsageComment(t *testing.T) {
	if os.Getenv("TCQRD_MAIN_TEST") != "" {
		os.Args = []string{"tcqrd", "-h"}
		main()
		os.Exit(0)
	}
	registered := registeredFlags(t)
	if len(registered) != 21 {
		t.Fatalf("%d flags parsed from -h output, want 21: %v", len(registered), registered)
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

// TestSmokeScenarioFlagsAreRegistered: every flag a smoke scenario hands a
// daemon child is one main() registers, and no placeholder reaches a child
// unexpanded — a row that drifts from the daemon's flag set fails here, not
// as a child that dies at start-up in CI.
func TestSmokeScenarioFlagsAreRegistered(t *testing.T) {
	registered := registeredFlags(t)
	for _, sc := range smokeScenarios {
		addrs := make([]string, len(sc.daemons))
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
		}
		for i, flags := range sc.daemons {
			args := childArgs(flags, "/tmp/smoke", i, addrs)
			if len(args)%2 != 0 {
				t.Fatalf("scenario %s child %d: %q is not flag/value pairs", sc.name, i, args)
			}
			for j := 0; j < len(args); j += 2 {
				name, value := args[j], args[j+1]
				if !strings.HasPrefix(name, "-") || !registered[name[1:]] {
					t.Errorf("scenario %s child %d passes %q, which main() does not register", sc.name, i, name)
				}
				if strings.Contains(value, "$") {
					t.Errorf("scenario %s child %d: %s %q has an unexpanded placeholder", sc.name, i, name, value)
				}
			}
		}
	}
	// The cluster row's children must agree on one member list and each name
	// itself in it.
	cl := smokeScenarios[len(smokeScenarios)-1]
	addrs := []string{"127.0.0.1:9000", "127.0.0.1:9001", "127.0.0.1:9002"}
	for i := range cl.daemons {
		args := strings.Join(childArgs(cl.daemons[i], "/tmp/smoke", i, addrs), " ")
		want := fmt.Sprintf("-addr %s -node-id n%d -peers n0=127.0.0.1:9000,n1=127.0.0.1:9001,n2=127.0.0.1:9002 ", addrs[i], i)
		if !strings.HasPrefix(args, want) {
			t.Errorf("cluster child %d: args %q, want prefix %q", i, args, want)
		}
	}
}

// TestMetricAbove pins the exposition parser every smoke scenario asserts
// /metrics with: exact family match (a longer name sharing the prefix is
// another family), label filtering by substring, strict comparison, and
// comment lines ignored.
func TestMetricAbove(t *testing.T) {
	const expo = `# HELP tcqrd_requests_total Requests 9 by endpoint.
# TYPE tcqrd_requests_total counter
tcqrd_requests_total{endpoint="solve"} 3
tcqrd_requests_total{endpoint="factorize"} 0
tcqrd_requests_total_extra 7
tcqrd_stream_sessions 0
tcqrd_wire_requests_total{endpoint="solve",encoding="binary"} 2
tcqrd_wire_requests_total{endpoint="solve",encoding="json"} 0
tcqrd_build_info{version="v1 (devel)",goversion="go1.22"} 1
tcqrd_stage_duration_seconds_sum{stage="solve"} 1.5e-3
`
	for _, tc := range []struct {
		family, label string
		min           float64
		want          bool
	}{
		{"tcqrd_requests_total", "", 0, true},
		{"tcqrd_requests_total", "", 2, true},
		{"tcqrd_requests_total", "", 3, false}, // strictly above; the _extra family's 7 and the HELP line's 9 are not samples of it
		{"tcqrd_requests_total", `endpoint="factorize"`, 0, false},
		{"tcqrd_requests", "", 0, false}, // a prefix of a family is not the family
		{"tcqrd_requests_total_extra", "", 6, true},
		{"tcqrd_stream_sessions", "", 0, false},
		{"tcqrd_stream_sessions", "", -1, true},
		{"tcqrd_wire_requests_total", `encoding="binary"`, 1, true},
		{"tcqrd_wire_requests_total", `encoding="json"`, 0, false},
		{"tcqrd_wire_requests_total", `encoding="frame"`, -1, false},
		{"tcqrd_build_info", `version="v1 (devel)"`, 0, true}, // a space inside a label value
		{"tcqrd_stage_duration_seconds_sum", "", 0.001, true},
		{"tcqrd_absent_total", "", -1, false},
	} {
		if got := metricLabelAbove(expo, tc.family, tc.label, tc.min); got != tc.want {
			t.Errorf("metricLabelAbove(%s, %q, %g) = %v, want %v", tc.family, tc.label, tc.min, got, tc.want)
		}
		if tc.label == "" {
			if got := metricAbove(expo, tc.family, tc.min); got != tc.want {
				t.Errorf("metricAbove(%s, %g) = %v, want %v", tc.family, tc.min, got, tc.want)
			}
		}
	}
	if got := metricValues(expo, "tcqrd_requests_total", ""); len(got) != 2 || got[0] != 3 || got[1] != 0 {
		t.Errorf("metricValues(tcqrd_requests_total) = %v, want [3 0]", got)
	}
}

// TestUnknownFaultSiteFailsStartup: a -fault-spec naming a site no daemon can
// fire — a typo, a site that exists only in a package no request reaches, or
// a retired one — stops the daemon before it listens and lists the valid
// sites, instead of arming a rule that never fires. The smoke's own schedule
// must pass the same check.
func TestUnknownFaultSiteFailsStartup(t *testing.T) {
	if spec := os.Getenv("TCQRD_MAIN_TEST_FAULT_SPEC"); spec != "" {
		os.Args = []string{"tcqrd", "-addr", "127.0.0.1:0", "-fault-spec", spec}
		main()
		os.Exit(0)
	}
	for _, site := range []string{"no.such.site", "tsqr.block.factor", "gram.ladder.rung"} {
		// The deadline only matters to a daemon that wrongly starts serving.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=TestUnknownFaultSiteFailsStartup")
		cmd.Env = append(os.Environ(), "TCQRD_MAIN_TEST_FAULT_SPEC="+site+"=error")
		out, err := cmd.CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("tcqrd -fault-spec %s=error: err=%v, want a non-zero exit; output:\n%s", site, err, out)
		}
		for _, want := range []string{site, "serve.cache.factorize", "cluster.route", "tcsim.gemm"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("startup error for site %s should name %s, got:\n%s", site, want, out)
			}
		}
	}
	defer faultinject.Disarm()
	if err := faultinject.Arm(faultSmokeSpec); err != nil {
		t.Fatal(err)
	}
	if err := serve.CheckFaultSites(faultinject.Sites()); err != nil {
		t.Errorf("the smoke's fault schedule does not pass the startup check: %v", err)
	}
}
