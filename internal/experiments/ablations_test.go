package experiments

import (
	"strings"
	"testing"
)

func TestRunAblationsScaled(t *testing.T) {
	res, err := runSuite(SuiteOptions{Seeds: 1, Ablations: true}, scaledSuite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Ablations.String()
	for _, want := range []string{
		"MutatedPartition (pointer stores only)",
		"MutatedObjectYNY (all mutations)",
		"UpdatedPointer + global sweep every 10",
		"UpdatedPointer, top-2 partitions",
		"UpdatedPointer, allocation trigger",
		"UpdatedPointer, client/server (16-page cache)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation table missing row %q:\n%s", want, out)
		}
	}
}
