package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden sections in scenario archives")

// TestScenarios runs every checked-in scenario archive and enforces the
// determinism contract: a second same-seed run through a fresh Runner must
// produce a byte-identical transcript. With -update, golden sections are
// regenerated in place instead.
func TestScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.txtar"))
	if err != nil {
		t.Fatal(err)
	}
	const minScenarios = 11
	if len(files) < minScenarios {
		t.Fatalf("scenario library has %d archives, want at least %d", len(files), minScenarios)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			t.Parallel()
			r := &Runner{Short: testing.Short(), Update: *update}
			res, err := r.RunFile(file)
			if err != nil {
				t.Fatalf("run: %v\ntranscript so far:\n%s", err, res.Transcript)
			}
			if res.Skipped {
				t.Skip(res.SkipReason)
			}
			if *update {
				if res.Updated {
					if err := os.WriteFile(file, res.Archive, 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("goldens updated")
				}
				return // an -update transcript legitimately differs
			}

			again, err := (&Runner{Short: testing.Short()}).RunFile(file)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !bytes.Equal(res.Transcript, again.Transcript) {
				t.Errorf("transcripts differ between same-seed runs\n%s",
					firstDiff(again.Transcript, res.Transcript))
			}
		})
	}
}

// TestRunnerReportsTranscriptOnFailure: a failing script still yields the
// transcript up to the failing line, and the error names file:line.
func TestRunnerReportsTranscriptOnFailure(t *testing.T) {
	src := []byte("world_up 2 1 seed=3\nexpect_stat duplicated == 1\n")
	res, err := (&Runner{}).Run("fail.txtar", src)
	if err == nil {
		t.Fatal("want an error from the failing assertion")
	}
	if got, want := err.Error(), "fail.txtar:2: expect_stat: duplicated = 0, want == 1"; got != want {
		t.Errorf("error = %q, want %q", got, want)
	}
	if !bytes.Contains(res.Transcript, []byte("world: chaos phones=2")) {
		t.Errorf("transcript up to the failure is missing:\n%s", res.Transcript)
	}
}

// TestRunnerNegationFailsOnSuccess: `! cmd` must fail the run when the
// command unexpectedly succeeds.
func TestRunnerNegationFailsOnSuccess(t *testing.T) {
	src := []byte("world_up 2 1\n! expect_stat rounds > 0\n")
	if _, err := (&Runner{}).Run("neg.txtar", src); err == nil {
		t.Fatal("negated command succeeded but the run passed")
	}
}

// TestRunnerShortSkip: [short] prefixes run only under -short, and the
// skipped line is echoed with a ~ sigil so transcripts stay comparable
// within one mode.
func TestRunnerShortSkip(t *testing.T) {
	src := []byte("[short] skip small machines only\nworld_up 2 1\n")
	res, err := (&Runner{Short: true}).Run("short.txtar", src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped || res.SkipReason != "small machines only" {
		t.Errorf("Skipped=%v reason=%q, want skip with reason", res.Skipped, res.SkipReason)
	}
	res, err = (&Runner{}).Run("short.txtar", src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped {
		t.Error("skipped without -short")
	}
	if !bytes.Contains(res.Transcript, []byte("~ [short] skip")) {
		t.Errorf("condition-skipped line not echoed with ~:\n%s", res.Transcript)
	}
}

// TestCrowdStatEndsWithItsWorld: the crowd cohort belongs to the chaos world
// that ran the crowd command. After world_down neither an empty stage nor a
// following fleet world may report it.
func TestCrowdStatEndsWithItsWorld(t *testing.T) {
	const chaos = "world_up 20 1 seed=3\ncrowd office 20 at=10h burst=1\nexpect_stat crowd >= 1\nworld_down\n"
	for _, tc := range []struct{ name, tail, want string }{
		{"no world", "expect_stat crowd >= 0\n", "needs a chaos or fleet world"},
		{"fleet world", "world_up 4 1 shards=1 msgs=1 cmds=1\nrun\nexpect_stat crowd >= 0\n", `unknown stat "crowd"`},
	} {
		_, err := (&Runner{}).Run("crowd.txtar", []byte(chaos+tc.tail))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: crowd stat after world_down: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
