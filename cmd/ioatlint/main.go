// Command ioatlint is the project's static-analysis multichecker. It
// enforces the simulator's determinism, hot-path allocation and probe
// nil-guard contracts at compile time, and reports library surface that
// no non-test code uses; see internal/analysis for what each analyzer
// rejects and why.
//
// Usage:
//
//	ioatlint [-run name,name] [packages...]
//
// With no packages it checks ./... — every package of the module —
// and exits non-zero if any finding survives suppression. Whatever it
// checks, it loads the whole module and the benchmark module, so that
// deadapi sees every use. Deliberate
// exceptions are annotated in the source:
//
//	//ioatlint:allow <analyzer>[,<analyzer>] — <reason>
//
// on the offending line or the line above it. The reason is mandatory;
// malformed and unused allow comments are findings themselves (unused
// ones only when the full suite runs, since a partial -run cannot tell
// an unused allow from one aimed at a skipped analyzer).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ioatsim/internal/analysis"
)

func main() {
	runList := flag.String("run", "",
		"comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: ioatlint [-run name,name] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers := all
	if *runList != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "ioatlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, idx, err := analysis.NewLoader().Tree(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ioatlint: %v\n", err)
		os.Exit(2)
	}
	findings, err := analysis.Lint(pkgs, idx, analyzers, len(analyzers) == len(all))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ioatlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ioatlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
