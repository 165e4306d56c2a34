// Command experiments regenerates every table and figure from the
// paper's demonstrations.
//
// Usage:
//
//	experiments [-quick] [-run E5]
//
// Without -run it executes everything in experiments.Registry: E1..E11
// and E13..E17 plus the ablations. -quick shrinks workloads (fewer trials, smaller
// corpora) so the whole suite finishes in well under a minute.
//
// Stdout is the transcript and repeats byte for byte: at full scale it
// is experiments_output.txt, with -quick it is
// internal/experiments/testdata/quick.golden. Figures that depend on
// scheduling or on crypto/rand (where E15's traces first diverge,
// E17's fresh-IV similarity) go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"snapdb/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced workloads (fewer trials, smaller corpora)")
	run := flag.String("run", "", "run a single experiment by id (E1..E11, E13..E17, E5-ablation, Ablations)")
	flag.Parse()

	if err := realMain(*quick, *run); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func realMain(quick bool, run string) error {
	var ids []string
	matched := false
	for _, x := range experiments.Registry {
		ids = append(ids, x.ID)
		if run != "" && !strings.EqualFold(run, x.ID) {
			continue
		}
		matched = true
		res, err := x.Run(quick)
		if err != nil {
			return err // it names the experiment already
		}
		fmt.Println(res.Render())
		if t, ok := res.(experiments.Timed); ok {
			fmt.Fprintln(os.Stderr, t.Timing())
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (want one of %s)", run, strings.Join(ids, ", "))
	}
	return nil
}
