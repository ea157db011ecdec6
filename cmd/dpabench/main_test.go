package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDpabench builds the command once and drives it as a user would.
func TestDpabench(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dpabench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit):
			code = exit.ExitCode()
		case err != nil:
			t.Fatalf("dpabench %v: %v", args, err)
		}
		return o.String(), e.String(), code
	}

	// The planner-determinism command CI diffs: everything below the header
	// line, which names the engine, must match byte for byte.
	t.Run("PlannerStdoutSameAcrossEngines", func(t *testing.T) {
		args := []string{"-app", "em3d", "-nodes", "8", "-bodies", "1024", "-iters", "2",
			"-planner", "-drop-rate", "0.05", "-fault-seed", "7"}
		body := func(engine string) string {
			out, errOut, code := run(append(args, "-engine", engine)...)
			if code != 0 {
				t.Fatalf("-engine %s exited %d: %s", engine, code, errOut)
			}
			_, rest, ok := strings.Cut(out, "\n")
			if !ok || rest == "" {
				t.Fatalf("-engine %s printed no run table:\n%s", engine, out)
			}
			return rest
		}
		if seq, par := body("sequential"), body("parallel"); seq != par {
			t.Fatalf("stdout differs across engines:\n--- sequential\n%s--- parallel\n%s", seq, par)
		}
	})

	t.Run("Rejections", func(t *testing.T) {
		for _, args := range [][]string{
			{"-checkpoint-out", filepath.Join(t.TempDir(), "ck.snap")},
			{"-crash-rate", "0.1"},
			{"-restore", "ck.snap", "-checkpoint-at", "1000"},
			{"-app", "bogus"},
			{"-tracebins", "0"},
			{"-app", "bh", "-bodies", "-5"},
			{"-app", "em3d", "-bodies", "-5"},
			{"-app", "fmm", "-bodies", "-5"},
			{"-app", "fmm", "-terms", "-1"},
			{"-app", "fmm", "-terms", "65"},
			{"-app", "bfs", "-vertices", "0"},
			{"-app", "pagerank", "-degree", "-1"},
			{"-app", "bh", "-steps", "-1"},
			{"-app", "em3d", "-iters", "-1"},
		} {
			out, errOut, code := run(append([]string{"-bodies", "256"}, args...)...)
			if code != 1 || !strings.HasPrefix(errOut, "dpabench: ") || strings.Count(errOut, "\n") != 1 {
				t.Errorf("%v: exit %d, stderr %q; want exit 1 with one dpabench: line", args, code, errOut)
			}
			if out != "" {
				t.Errorf("%v: rejected run printed %q", args, out)
			}
		}
	})
}
