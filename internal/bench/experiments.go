package bench

import (
	"fmt"
	"slices"
	"strings"
)

// Experiments names what gsn-bench regenerates: the paper's two figures
// and its wrapper-effort claim, in the order -experiment all runs them.
// cmd/gsn-bench accepts these names (and "all") and cmd/docs-check holds
// the documentation to the same list.
var Experiments = []string{"figure3", "figure4", "wrappers"}

// CheckExperiment rejects a -experiment value gsn-bench does not run.
func CheckExperiment(name string) error {
	if name == "all" || slices.Contains(Experiments, name) {
		return nil
	}
	return fmt.Errorf("unknown experiment %q (valid: %s, all)", name, strings.Join(Experiments, ", "))
}
