package main

import (
	"bytes"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return out.String(), errBuf.String(), code
}

func TestList(t *testing.T) {
	out, _, code := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"} {
		if !strings.Contains(out, id+" ") && !strings.Contains(out, id+"\t") && !strings.Contains(out, id+"   ") {
			t.Errorf("listing missing %s:\n%s", id, out)
		}
	}
}

func TestSingleExperimentQuick(t *testing.T) {
	out, _, code := runBench(t, "-quick", "-exp", "e1")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"== e1", "claim:", "magic", "separable"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, errOut, code := runBench(t, "-exp", "e99")
	if code != 2 || !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("exit=%d err=%q", code, errOut)
	}
}

func TestCSVFormat(t *testing.T) {
	out, _, code := runBench(t, "-quick", "-exp", "e2", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(out, "exp,params,algorithm,") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	if !strings.Contains(out, "e2,n=6,counting,1,count,63,") {
		t.Fatalf("missing counting row:\n%s", out)
	}
}

// TestBadInputRejected: an unknown -format or a stray positional argument
// is a usage error (exit 2 with a message), not a silent table.
func TestBadInputRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown-format", []string{"-exp", "e5", "-quick", "-format", "json"}, `unknown format "json"`},
		{"positional-arg", []string{"-quick", "e5"}, `unexpected argument "e5"`},
		{"positional-after-list", []string{"-list", "extra"}, `unexpected argument "extra"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := runBench(t, tc.args...)
			if code != 2 || !strings.Contains(errOut, tc.want) {
				t.Fatalf("exit=%d err=%q, want exit 2 with %q", code, errOut, tc.want)
			}
			if out != "" {
				t.Fatalf("usage error still printed output:\n%s", out)
			}
		})
	}
}
