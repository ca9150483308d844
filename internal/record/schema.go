package record

// The three table schemas are fixed per format version: segment
// payloads carry no column names, so the magic's version byte is the
// schema's version too. Every value is a raw int64 count — KB/MB
// scaling and float formatting happen in the reporting layer, which is
// what lets a recorded run regenerate the figure CSVs bit-identically.

// colSpec declares one column: its name and whether its values are
// dictionary string IDs.
type colSpec struct {
	name string
	str  bool
}

// runsSchema is one row per finished run: identity (label, family,
// policy, sweep point, seed, shard) plus the run's sim.Result counters.
var runsSchema = []colSpec{
	{"run", false}, {"shard", false},
	{"label", true}, {"family", true}, {"policy", true},
	{"point", false}, {"seed", false}, {"events", false},
	{"app_ios", false}, {"gc_ios", false}, {"total_ios", false},
	{"max_occupied_bytes", false}, {"max_footprint_bytes", false},
	{"num_partitions", false},
	{"collections", false}, {"declined", false},
	{"reclaimed_bytes", false}, {"reclaimed_objects", false},
	{"copied_bytes", false}, {"copied_objects", false},
	{"actual_garbage_bytes", false},
	{"final_live_bytes", false}, {"final_occupied_bytes", false},
	{"total_allocated_bytes", false}, {"overwrites", false},
}

// activationsSchema is one row per collector activation: what the
// trigger was, what the policy chose (partition/dest are -1 when it
// declined), what the evacuation found, and the I/O it cost.
var activationsSchema = []colSpec{
	{"run", false}, {"shard", false}, {"seq", false}, {"events", false}, {"epoch", false},
	{"cause", true}, {"collected", false},
	{"partition", false}, {"dest", false},
	{"garbage_bytes", false}, {"garbage_objects", false},
	{"copied_bytes", false}, {"copied_objects", false},
	{"gc_read_ios", false}, {"gc_write_ios", false},
	{"buf_hits", false}, {"buf_misses", false},
	{"app_read_ios", false}, {"app_write_ios", false},
	{"occupied_bytes", false},
}

// samplesSchema is one row per time-series sample: the Figure 4–6
// quantities in raw bytes plus the cumulative I/O split.
var samplesSchema = []colSpec{
	{"run", false}, {"shard", false}, {"seq", false}, {"events", false}, {"epoch", false},
	{"occupied_bytes", false}, {"live_bytes", false}, {"footprint_bytes", false},
	{"app_ios", false}, {"gc_ios", false},
	{"total_allocated_bytes", false},
}

// schemaFor maps a segment kind to its schema and table name. The
// dictionary carries no column schema and is never wrapped in a Table.
func schemaFor(kind segKind) ([]colSpec, string) {
	switch kind {
	case kindRuns:
		return runsSchema, "runs"
	case kindActivations:
		return activationsSchema, "activations"
	case kindSamples:
		return samplesSchema, "samples"
	case kindDict:
		return nil, ""
	}
	return nil, ""
}
