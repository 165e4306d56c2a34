// Package mitigate makes §7 of the paper concrete: which snapshot
// leakage channels *can* a deployment close with configuration, and
// which are inherent to running an ACID, replicated DBMS?
//
// Harden produces the most conservative configuration the engine
// supports: secure heap deletion, no performance_schema, a scrubbed
// processlist, no query cache, no query logs. Compare then diffs the
// leakage reports of a default and a hardened engine under the same
// workload and attack. The result is the paper's closing argument in
// table form: the volatile channels close, but the WAL and binlog —
// which exist because of transactional guarantees and high
// availability — keep the write history an attacker needs.
package mitigate

import (
	"fmt"
	"sort"
	"strings"

	"snapdb/internal/core"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
)

// Harden returns cfg with every optional leakage channel disabled.
// The WAL cannot be disabled (ACID requires it); the binlog is left on
// by default because replicated production systems cannot run without
// it — pass keepBinlog = false to model a single-node deployment that
// can afford to lose point-in-time recovery.
func Harden(cfg engine.Config, keepBinlog bool) engine.Config {
	cfg.EnableBinlog = keepBinlog
	cfg.EnableGeneralLog = false
	cfg.EnableQueryCache = false
	cfg.DisableSlowLog = true
	cfg.SecureHeapDelete = true
	cfg.DisablePerfSchema = true
	cfg.ScrubProcesslist = true
	return cfg
}

// ChannelDiff compares one channel across the two configurations.
type ChannelDiff struct {
	Channel  string
	Default  int // artifacts recovered from the default engine
	Hardened int // artifacts recovered from the hardened engine
	Closed   bool
}

// Comparison is the outcome of running the same workload on a default
// and a hardened engine and attacking both.
type Comparison struct {
	Attack   snapshot.AttackType
	Channels []ChannelDiff
	// Inherent lists channels the hardened engine still leaks on.
	Inherent []string
}

// Render formats the comparison table.
func (c *Comparison) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hardening comparison under %s\n", c.Attack)
	fmt.Fprintf(&sb, "%-20s  %-8s  %-8s  %s\n", "channel", "default", "hardened", "closed")
	fmt.Fprintf(&sb, "%-20s  %-8s  %-8s  %s\n", strings.Repeat("-", 20), "-------", "--------", "------")
	for _, ch := range c.Channels {
		fmt.Fprintf(&sb, "%-20s  %-8d  %-8d  %v\n", ch.Channel, ch.Default, ch.Hardened, ch.Closed)
	}
	fmt.Fprintf(&sb, "inherent channels remaining: %s\n", strings.Join(c.Inherent, ", "))
	return sb.String()
}

// Workload is a function that drives identical traffic into an engine.
type Workload func(e *engine.Engine) error

// Compare runs workload on a default-configured and a hardened engine,
// captures the same attack snapshot from both, and diffs the leakage
// reports channel by channel.
func Compare(base engine.Config, keepBinlog bool, attack snapshot.AttackType, workload Workload) (*Comparison, error) {
	run := func(cfg engine.Config) (*core.Report, error) {
		e, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := workload(e); err != nil {
			return nil, err
		}
		return core.Analyze(snapshot.Capture(e, attack))
	}
	defRep, err := run(base)
	if err != nil {
		return nil, fmt.Errorf("mitigate: default run: %w", err)
	}
	hardRep, err := run(Harden(base, keepBinlog))
	if err != nil {
		return nil, fmt.Errorf("mitigate: hardened run: %w", err)
	}

	channels := map[string]*ChannelDiff{}
	get := func(name string) *ChannelDiff {
		if d, ok := channels[name]; ok {
			return d
		}
		d := &ChannelDiff{Channel: name}
		channels[name] = d
		return d
	}
	for _, f := range defRep.Findings {
		get(f.Channel).Default += f.Count
	}
	for _, f := range hardRep.Findings {
		get(f.Channel).Hardened += f.Count
	}
	out := &Comparison{Attack: attack}
	names := make([]string, 0, len(channels))
	for name := range channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := channels[name]
		d.Closed = d.Default > 0 && d.Hardened == 0
		out.Channels = append(out.Channels, *d)
		if d.Hardened > 0 {
			out.Inherent = append(out.Inherent, name)
		}
	}
	return out, nil
}
