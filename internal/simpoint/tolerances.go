package simpoint

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
)

//go:embed tolerances_classB.json
var toleranceJSON []byte

var tolerances = func() map[string]float64 {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(toleranceJSON, &raw); err != nil {
		panic(fmt.Sprintf("simpoint: bad tolerances_classB.json: %v", err))
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if strings.HasPrefix(k, "_") {
			continue
		}
		var f float64
		if err := json.Unmarshal(v, &f); err != nil {
			panic(fmt.Sprintf("simpoint: bad tolerance for %q: %v", k, err))
		}
		out[k] = f
	}
	return out
}()

// ToleranceClassB returns the checked-in maximum acceptable profile
// error (percentage points) for the program's classB sampled run, and
// whether one is recorded. Both the error-bound test
// (TestSampledClassBWithinTolerance) and the bench/ warm workload's
// correctness check gate on the same numbers.
func ToleranceClassB(program string) (float64, bool) {
	t, ok := tolerances[program]
	return t, ok
}
