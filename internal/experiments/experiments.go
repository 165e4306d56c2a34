// Package experiments regenerates every table and figure in the
// paper's demonstrations. Each experiment Exx returns a structured
// result with a Render method; Registry lists them in transcript order
// and cmd/experiments prints them. Quick variants shrink workloads so
// the suite runs in CI time; the full variants match the paper's
// parameters.
//
// The printed transcript is an exact gate: every Render repeats byte
// for byte, so experiments_output.txt (full scale) and
// testdata/quick.golden (-quick, compared by TestAllQuick) are diffed,
// not eyeballed. A figure that depends on scheduling or on crypto/rand
// goes to Timing instead.
package experiments

import (
	"fmt"
	"strings"
)

// Result is a rendered experiment outcome.
type Result interface {
	// Name returns the experiment id (e.g. "E5").
	Name() string
	// Render formats the experiment's table. Two runs at the same
	// scale render identical bytes.
	Render() string
}

// Timed is implemented by results that also measured something that
// does not repeat bit for bit — wall-clock rates, counts that depend
// on goroutine interleaving, similarities over crypto/rand output.
// cmd/experiments prints Timing to stderr, outside the transcript.
type Timed interface {
	Timing() string
}

// Experiment is one registry entry: the id cmd/experiments -run
// accepts, which is also the Name of the Result that Run returns. An
// error from Run names the experiment once, at its start: "E15: …".
type Experiment struct {
	ID  string
	Run func(quick bool) (Result, error)
}

// entry adapts a typed experiment function to a registry entry. Most
// experiments start their own messages with their id; entry adds it to
// those that do not, and never a second time.
func entry[R Result](id string, run func(quick bool) (R, error)) Experiment {
	return Experiment{ID: id, Run: func(quick bool) (Result, error) {
		res, err := run(quick)
		if err != nil {
			return nil, named(id, err)
		}
		return res, nil
	}}
}

// named prefixes err with "id: " unless its message already starts so.
func named(id string, err error) error {
	if strings.HasPrefix(err.Error(), id+":") {
		return err
	}
	return fmt.Errorf("%s: %w", id, err)
}

// Registry is every experiment, in transcript order. All,
// cmd/experiments and TestAllQuick iterate it and nothing else lists
// experiments.
var Registry = []Experiment{
	entry("E1", func(bool) (*E1Result, error) { return E1Figure1() }),
	entry("E2", E2LogRetention),
	entry("E3", E3BinlogCorrelation),
	entry("E4", E4HeapResidue),
	entry("E5", E5LewiWu),
	entry("E5-ablation", E5BlockSizeAblation),
	entry("E6", E6CountAttack),
	entry("E7", E7Seabed),
	entry("E8", E8Arx),
	entry("E9", func(bool) (*E9Result, error) { return E9AtRest() }),
	entry("E10", E10Diagnostics),
	entry("E11", E11Mitigations),
	entry("E13", E13CrashResidue),
	entry("E14", E14RetryResidue),
	entry("E15", E15ParallelTrace),
	entry("E16", E16VersionResidue),
	entry("E17", E17SnapshotDiff),
	entry("Ablations", Ablations),
}

// table is a minimal fixed-width table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return sb.String()
}

// All runs every experiment in Registry with the given scale.
func All(quick bool) ([]Result, error) {
	out := make([]Result, 0, len(Registry))
	for _, x := range Registry {
		res, err := x.Run(quick)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
