package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestFlagValidation drives the real flag path: the test binary
// re-executes itself with MISVIZ_ARGS set, and the child runs run() on
// those arguments. A graph flag out of its generator's range must exit 2
// with one line instead of a panic's goroutine trace, so must a negative
// -width instead of rendering as if unlimited, and -proc takes the process
// names experiment.ParseKind accepts.
func TestFlagValidation(t *testing.T) {
	if args := os.Getenv("MISVIZ_ARGS"); args != "" {
		os.Args = append([]string{"misviz"}, strings.Fields(args)...)
		os.Exit(run())
	}
	runSelf := func(args string) (int, string) {
		cmd := exec.Command(os.Args[0], "-test.run", "TestFlagValidation")
		cmd.Env = append(os.Environ(), "MISVIZ_ARGS="+args)
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
	for _, c := range []struct{ args, diag string }{
		{"-n 0", "-n must be >= 1"},
		{"-n -3", "-n must be >= 1"},
		{"-graph clique -n -1", "-n must be >= 1"},
		{"-graph cycle -n 2", "-graph cycle needs -n >= 3"},
		{"-graph gnp -p 2", "-p must be in [0, 1]"},
		{"-graph gnp -p NaN", "-p must be in [0, 1]"},
		{"-graph cycle -n 12 -width -5", "-width must be >= 0"},
	} {
		code, out := runSelf(c.args)
		if code != 2 {
			t.Errorf("%s: exit code = %d, want 2", c.args, code)
			continue
		}
		if !strings.Contains(out, c.diag) || strings.Count(out, "\n") != 1 {
			t.Errorf("%s: want the one-line diagnostic %q, output: %q", c.args, c.diag, out)
		}
	}
	for _, args := range []string{"-graph path -n 8 -proc 3-state", "-graph grid -n 16 -proc 3color -grid", "-graph cycle -n 12 -width 0"} {
		if code, out := runSelf(args); code != 0 {
			t.Errorf("%s: exit code = %d, want 0; output: %q", args, code, out)
		}
	}
}
