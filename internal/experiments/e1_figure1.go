package experiments

import (
	"fmt"

	"snapdb/internal/core"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
)

// E1Result reproduces Figure 1: the attack-type × artifact-class
// matrix, verified against live captures rather than asserted.
type E1Result struct {
	Rows []E1Row
}

// E1Row is one attack's verified reveal set.
type E1Row struct {
	Attack      snapshot.AttackType
	Logs        bool
	Diagnostics bool
	Memory      bool
	// Channel counts observed in the live capture, proving the flags.
	FindingChannels []string
}

// Name implements Result.
func (*E1Result) Name() string { return "E1" }

// Render implements Result.
func (r *E1Result) Render() string {
	t := &table{header: []string{"attack", "logs", "diagnostic tables", "data structures", "channels observed"}}
	mark := func(b bool) string {
		if b {
			return "X"
		}
		return ""
	}
	for _, row := range r.Rows {
		t.add(row.Attack.String(), mark(row.Logs), mark(row.Diagnostics), mark(row.Memory),
			fmt.Sprintf("%d", len(row.FindingChannels)))
	}
	return "Figure 1: DBMS-specific data yielded by each snapshot attack\n" + t.String()
}

// E1Figure1 runs a mixed workload and captures each attack's snapshot,
// checking that the revealed components match the paper's matrix.
func E1Figure1() (*E1Result, error) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		return nil, err
	}
	e.Clock = func() int64 { return 1_700_000_000 }
	s := e.Connect("app")
	stmts := []string{
		"CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)",
		"INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
		"INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)",
		"UPDATE accounts SET balance = 175 WHERE id = 2",
		"SELECT owner FROM accounts WHERE balance >= 150",
	}
	for _, q := range stmts {
		if _, err := s.Execute(q); err != nil {
			return nil, fmt.Errorf("E1: %w", err)
		}
	}
	res := &E1Result{}
	for _, attack := range snapshot.AllAttacks {
		snap := snapshot.Capture(e, attack)
		rep, err := core.Analyze(snap)
		if err != nil {
			return nil, fmt.Errorf("E1 %v: %w", attack, err)
		}
		row := E1Row{
			Attack:      attack,
			Logs:        snap.Disk != nil,
			Diagnostics: snap.Diagnostics != nil,
			Memory:      snap.Memory != nil,
		}
		for _, f := range rep.Findings {
			row.FindingChannels = append(row.FindingChannels, f.Channel)
		}
		want := attack.Reveals()
		if row.Logs != want.Logs || row.Diagnostics != want.Diagnostics || row.Memory != want.Memory {
			return nil, fmt.Errorf("E1: %v revealed %+v, want %+v", attack, row, want)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
