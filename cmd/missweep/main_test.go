package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runSelf re-executes the test binary with MISSWEEP_ARGS set so the child
// process runs run() on the given command line (the real flag path).
func runSelf(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestWorkersFlagValidation")
	cmd.Env = append(os.Environ(), "MISSWEEP_ARGS="+args)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("re-exec %q: %v; output: %q", args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestWorkersFlagValidation checks that flag values the sweep cannot
// honour are rejected at flag parsing with a one-line diagnostic (exit 2):
// a negative -workers (the pool used to coerce it to GOMAXPROCS), a
// negative -batch (it used to select auto) and a -scale that is not a
// finite number above 0 (0 and negatives used to run the full scale-1 grid,
// NaN an undefined one). Valid values still work.
func TestWorkersFlagValidation(t *testing.T) {
	if args := os.Getenv("MISSWEEP_ARGS"); args != "" {
		os.Args = append([]string{"missweep"}, strings.Fields(args)...)
		os.Exit(run())
	}
	for _, tc := range []struct{ args, diag string }{
		{"-list -workers -2", "-workers must be >= 0"},
		{"-list -batch -3", "-batch must be >= 0"},
		{"-list -scale 0", "-scale must be a finite number above 0"},
		{"-list -scale -1", "-scale must be a finite number above 0"},
		{"-list -scale NaN", "-scale must be a finite number above 0"},
		{"-list -scale +Inf", "-scale must be a finite number above 0"},
	} {
		code, out := runSelf(t, tc.args)
		if code != 2 {
			t.Errorf("%s: exit code = %d, want 2", tc.args, code)
			continue
		}
		if !strings.Contains(out, tc.diag) || strings.Count(strings.TrimSpace(out), "\n") != 0 {
			t.Errorf("%s: want the one-line diagnostic %q, got %q", tc.args, tc.diag, out)
		}
	}
	for _, args := range []string{"-list -workers 2", "-list -batch 4 -scale 0.05"} {
		if code, out := runSelf(t, args); code != 0 {
			t.Fatalf("%s: exit code = %d, want 0; output: %q", args, code, out)
		}
	}
}
