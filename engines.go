package scream

// The public interference-engine registry: the name-addressable table of
// interference models the schedulers can build against. It mirrors the
// scheduler registry (Schedulers/SchedulerByName): CLIs (flowsim -engine,
// figgen), the screamd daemon's /api/v1/engines endpoint and scenario specs
// (ScenarioSpec.Interference) all enumerate and resolve engines through this
// one table. Engines are constructed from a deployment, not from a name (see
// Mesh.UseEngine), so the table carries metadata only.

import (
	"fmt"
	"strings"
)

// EngineInfo describes one registered interference engine. The JSON shape is
// served verbatim by screamd's /api/v1/engines endpoint.
type EngineInfo struct {
	// Name is the registry key: the value of flowsim -engine and
	// ScenarioSpec.Interference.Engine.
	Name string `json:"name"`
	// Doc is a one-line description of the engine's model and trade-off.
	Doc string `json:"doc"`
	// Exact reports whether the engine answers every interference query
	// exactly (true) or may conservatively over-estimate far-field
	// interference (false). Inexact engines never admit a schedule the exact
	// model would reject — they only reject more.
	Exact bool `json:"exact"`
}

// Engine registry names.
const (
	// EngineDense is the exact dense n x n gain matrix — the reference model
	// and the default everywhere an engine is not named.
	EngineDense = "dense"
	// EngineSpatial is the grid-bucket spatial index: exact near-field
	// queries within a cutoff radius, a conservative per-bucket far-field
	// bound beyond it, O(n) memory.
	EngineSpatial = "spatial"
)

// engines is the registry table in reporting order (the exact default
// first). Nothing writes to it: Engines hands out copies.
var engines = [...]EngineInfo{
	{
		Name:  EngineDense,
		Doc:   "exact dense n*n gain matrix; the reference model (O(n^2) memory)",
		Exact: true,
	},
	{
		Name:  EngineSpatial,
		Doc:   "grid-bucket index: exact near-field, conservative far-field bound (O(n) memory)",
		Exact: false,
	},
}

// Engines enumerates the registered interference engines in reporting order
// (the exact default first). The returned slice is freshly allocated on every
// call: mutating it never affects the registry.
func Engines() []EngineInfo {
	return append([]EngineInfo(nil), engines[:]...)
}

// EngineByName resolves a registry name ("dense", "spatial") to its engine
// description. Unknown names return an error listing every valid name.
func EngineByName(name string) (EngineInfo, error) {
	for _, e := range engines {
		if e.Name == name {
			return e, nil
		}
	}
	// Scenario validation resolves the engine on every run, so the name list
	// is built only on a miss.
	valid := make([]string, len(engines))
	for i, e := range engines {
		valid[i] = e.Name
	}
	return EngineInfo{}, fmt.Errorf("scream: unknown engine %q (valid: %s)", name, strings.Join(valid, ", "))
}
