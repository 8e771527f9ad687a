// Command pogo-scenario runs txtar scenario files against the simulated Pogo
// world. With no arguments it runs every scenario in the repo's library;
// -list enumerates them for CI logs; -update regenerates golden sections
// after an intentional change.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pogo/internal/scenario"
)

const defaultDir = "internal/scenario/testdata/scenarios"

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list available scenarios and exit")
	update := flag.Bool("update", false, "regenerate golden sections in place")
	short := flag.Bool("short", false, "honor [short] condition prefixes")
	verbose := flag.Bool("v", false, "print run transcripts")
	dir := flag.String("dir", defaultDir, "scenario directory used when no files are given")
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		matches, err := filepath.Glob(filepath.Join(*dir, "*.txtar"))
		if err != nil || len(matches) == 0 {
			fmt.Fprintf(os.Stderr, "pogo-scenario: no *.txtar under %s\n", *dir)
			return 1
		}
		files = matches
	}
	sort.Strings(files)

	if *list {
		for _, f := range files {
			fmt.Printf("%-24s %s\n", strings.TrimSuffix(filepath.Base(f), ".txtar"), title(f))
		}
		return 0
	}

	r := &scenario.Runner{Short: *short, Update: *update}
	failed := 0
	for _, f := range files {
		res, err := r.RunFile(f)
		switch {
		case err != nil:
			fmt.Printf("FAIL %s: %v\n", f, err)
			if res != nil && *verbose {
				os.Stdout.Write(res.Transcript)
			}
			failed++
			continue
		case res.Skipped:
			fmt.Printf("skip %s: %s\n", f, res.SkipReason)
		default:
			fmt.Printf("ok   %s\n", f)
		}
		if *verbose {
			os.Stdout.Write(res.Transcript)
		}
		if res.Updated {
			if err := os.WriteFile(f, res.Archive, 0o644); err != nil {
				fmt.Printf("FAIL %s: writing updated goldens: %v\n", f, err)
				failed++
				continue
			}
			fmt.Printf("     %s: goldens updated\n", f)
		}
	}
	if failed > 0 {
		fmt.Printf("pogo-scenario: %d of %d scenarios failed\n", failed, len(files))
		return 1
	}
	return 0
}

// title returns the scenario's first comment line (its `# ...` header).
func title(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(scenario.ParseTxtar(data).Comment), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			return strings.TrimSpace(strings.TrimPrefix(line, "#"))
		}
		if line != "" {
			break
		}
	}
	return ""
}
