package gc

// Trigger decides when to activate the collector. The paper triggers a
// collection after a fixed number of pointer overwrites (150–300 in its
// runs), because overwrites correlate with garbage creation and because an
// overwrite count is independent of the partition selection policy, so
// every policy performs the same number of collections. The alternative
// "when to collect" policy from the paper's Table 1 ("when more space is
// needed") counts allocated bytes instead, for ablation studies.
type Trigger struct {
	// Overwrites fires the trigger every N pointer overwrites.
	Overwrites int64
	// AllocationBytes, when positive, replaces Overwrites: the trigger
	// fires every N allocated bytes, and overwrites do not advance it.
	AllocationBytes int64

	// progress counts toward the next activation, in overwrites or bytes.
	progress int64
}

// RecordOverwrite notes one pointer overwrite and reports whether the
// collector should run now.
func (t *Trigger) RecordOverwrite() bool {
	if t.AllocationBytes > 0 {
		return false
	}
	t.progress++
	return t.progress >= t.Overwrites
}

// RecordAllocation notes bytes allocated and reports whether the collector
// should run now.
func (t *Trigger) RecordAllocation(bytes int64) bool {
	if t.AllocationBytes <= 0 {
		return false
	}
	t.progress += bytes
	return t.progress >= t.AllocationBytes
}

// Reset clears progress toward the next activation; the simulator calls it
// after each collection.
func (t *Trigger) Reset() { t.progress = 0 }
