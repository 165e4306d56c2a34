package engine

import (
	"reflect"
	"testing"
)

// configReaders is the knob census: every Config field, and who outside
// this package's own tests needs it to be settable — an experiment, the
// hardening profile (internal/mitigate), a snapdbd flag, snapbench, or a
// differential test that uses it as its reference arm. A field with no
// such reader is a constant in waiting and does not belong in Config. A
// new field must arrive with its line here, or the test below fails.
var configReaders = map[string]string{
	"BufferPoolPages":  "experiments.Ablations sweeps it (E1's LRU/dump surface scales with it)",
	"EnableBinlog":     "internal/mitigate (Harden keeps or drops the binlog; E11)",
	"EnableGeneralLog": "internal/mitigate; E14 and E15 switch it on to read arrivals",
	"EnableQueryCache": "internal/mitigate; E15/E16 switch it off so every statement really scans",
	"DisablePlanCache": "reference arm of TestDifferentialLegacyVsOperator, TestPlanCacheLeakageEquivalence(+Parallel)",
	"HistoryPerThread": "experiments.Ablations sweeps it; E10 reports the ring size",
	"DisableSlowLog":   "internal/mitigate",
	"StatementTimeout": "snapdbd -stmt-timeout",

	"MaxScanWorkers":      "snapdbd -scan-workers; E15 (0 is the serial arm)",
	"ParallelScanMinRows": "E15 lowers it so its small ledger fans out",

	"SecureHeapDelete":  "internal/mitigate (E11)",
	"DisablePerfSchema": "internal/mitigate; snapbench's perfschema.us_per_stmt probe",
	"ScrubProcesslist":  "internal/mitigate",

	"DisableMVCC":  "E17 (keeps version-store bytes out of its checkpoint diffs); reference arm of TestDifferentialMVCCVsLocking",
	"DisablePurge": "E16 retain-everything arm",
	"PurgeEvery":   "E16 inline/aggressive purge arms",

	"FS":                 "snapdbd -datadir; snapbench; E13/E16/E17",
	"EncryptAtRest":      "snapdbd -encrypt; snapbench write_crypt; E17",
	"EncryptionKey":      "snapdbd SNAPDB_ENCRYPTION_KEY; snapbench write_crypt; E17",
	"DeterministicPages": "snapdbd -fresh-iv; E17 fresh-IV ablation",
}

// configKnobs is the census total ROADMAP's baseline quotes; a PR that
// moves it says so there.
const configKnobs = 20

func TestConfigKnobCensus(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	if got := typ.NumField(); got != configKnobs {
		t.Errorf("Config has %d fields, the census says %d", got, configKnobs)
	}
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; configReaders[name] == "" {
			t.Errorf("Config.%s has no entry in the knob census: name who reads it (experiment, internal/mitigate, snapdbd flag, snapbench, or the test whose reference arm it is) or do not add it", name)
		}
	}
	for name := range configReaders {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("knob census lists Config.%s, which no longer exists", name)
		}
	}
}
