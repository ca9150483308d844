package gc

import "testing"

func TestOverwriteTriggerFiresEveryN(t *testing.T) {
	tr := Trigger{Overwrites: 3}
	fired := 0
	for i := 0; i < 9; i++ {
		if tr.RecordOverwrite() {
			fired++
			tr.Reset()
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times in 9 overwrites with interval 3", fired)
	}
}

func TestOverwriteTriggerIgnoresAllocation(t *testing.T) {
	tr := Trigger{Overwrites: 1}
	if tr.RecordAllocation(1 << 20) {
		t.Fatal("allocation advanced an overwrite trigger")
	}
}

func TestAllocationTriggerFiresOnBytes(t *testing.T) {
	// Overwrites is set too: a positive AllocationBytes replaces it.
	tr := Trigger{Overwrites: 1, AllocationBytes: 1000}
	if tr.RecordAllocation(999) {
		t.Fatal("fired early")
	}
	if !tr.RecordAllocation(1) {
		t.Fatal("did not fire at threshold")
	}
	tr.Reset()
	if tr.RecordAllocation(500) {
		t.Fatal("fired after reset")
	}
	if tr.RecordOverwrite() {
		t.Fatal("overwrite advanced an allocation trigger")
	}
}
