package check

import (
	"fmt"
	"reflect"
	"strings"

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
		if f.Name == "Series" {
			// The one non-comparable field: a pointer to sampled rows.
			if !reflect.DeepEqual(a.Series, b.Series) {
				diffs = append(diffs, describeSeriesDiff(a, b))
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

// describeSeriesDiff pinpoints where two time series came apart.
func describeSeriesDiff(a, b sim.Result) string {
	sa, sb := a.Series, b.Series
	switch {
	case sa == nil || sb == nil:
		return fmt.Sprintf("Series: %s vs %s", describeSeries(sa != nil), describeSeries(sb != nil))
	case sa.Len() != sb.Len():
		return fmt.Sprintf("Series: %d samples vs %d samples", sa.Len(), sb.Len())
	case len(sa.Y) != len(sb.Y):
		return "Series: header mismatch (" + strings.Join(sa.Names, ",") + " vs " + strings.Join(sb.Names, ",") + ")"
	default:
		for i := 0; i < sa.Len(); i++ {
			if sa.X[i] != sb.X[i] {
				return fmt.Sprintf("Series: sample %d taken at x=%d vs x=%d", i, sa.X[i], sb.X[i])
			}
			for c := range sa.Y {
				if sa.Y[c][i] != sb.Y[c][i] {
					return fmt.Sprintf("Series: first divergent sample at x=%d, column %s (%v vs %v)",
						sa.X[i], sa.Names[c], sa.Y[c][i], sb.Y[c][i])
				}
			}
		}
		return "Series: header mismatch (" + strings.Join(sa.Names, ",") + " vs " + strings.Join(sb.Names, ",") + ")"
	}
}

func describeSeries(present bool) string {
	if present {
		return "sampled"
	}
	return "absent"
}
