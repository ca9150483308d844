package check

import (
	"fmt"
	"reflect"

	"odbgc/internal/sim"
)

// DiffResults compares two runs that must be bit-identical and reports
// every field that diverges, first field first — a readable account of
// where two supposedly equivalent paths came apart, instead of a bare
// DeepEqual verdict. labelA and labelB name the two paths (e.g.
// "in-memory replay" / "streamed chunked replay"). It returns nil when
// the results agree.
func DiffResults(labelA, labelB string, a, b sim.Result) error {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	t := va.Type()
	var diffs []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "Samples" {
			// The one non-comparable field: report its first divergent
			// sample.
			if d := diffSamples(a.Samples, b.Samples); d != "" {
				diffs = append(diffs, d)
			}
			continue
		}
		x, y := va.Field(i).Interface(), vb.Field(i).Interface()
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", f.Name, x, y))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("check: %s and %s diverge at %s (%s vs %s, %d field(s) differ)",
		labelA, labelB, diffs[0], labelA, labelB, len(diffs))
}

// diffSamples describes where two sample lists first differ, or returns
// "" when they agree.
func diffSamples(a, b []sim.SampleRecord) string {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("Samples[%d]: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("Samples: %d vs %d samples", len(a), len(b))
	}
	return ""
}
