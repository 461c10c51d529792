package telemetry

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", path, err)
		}
	}

	// Unset, the flags start nothing and write nothing.
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("unset profiles left %d files, want the 2 from above", len(entries))
	}

	if _, err := StartProfiles(filepath.Join(dir, "no/such/dir/cpu.prof"), ""); err == nil {
		t.Error("unwritable -cpuprofile path: no error")
	}
	stop, err = StartProfiles("", filepath.Join(dir, "no/such/dir/mem.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable -memprofile path: no error")
	}
}
