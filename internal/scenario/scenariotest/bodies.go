// Package scenariotest provides one canonical, valid request body per
// registered scenario kind, shared by the registry-wide conformance suite
// (internal/scenario), the service-level endpoint conformance tests
// (internal/service), and the simulate benchmarks. A kind is not fully
// registered until it has a body here: the conformance suite fails on any
// registered kind without one, so the map doubles as a completeness gate.
package scenariotest

import (
	"fmt"
	"sort"
)

// simulateBodies maps kind -> a canonical /v1/simulate body template with
// a %d verb for the seed (benchmarks vary it to defeat the cache). Bodies
// are sized to finish in milliseconds while still exercising the real
// replication path.
var simulateBodies = map[string]string{
	"mg1": `{"kind":"mg1","mg1":{"spec":{"classes":[
		{"rate":0.3,"service_mean":0.5,"hold_cost":4},
		{"rate":0.2,"service_mean":1,"hold_cost":1}
	]},"policy":"cmu","horizon":400,"burnin":50},"seed":%d,"replications":10}`,

	"mmm": `{"kind":"mmm","mmm":{"spec":{"classes":[
		{"rate":0.8,"service_mean":1,"hold_cost":3},
		{"rate":0.6,"service_mean":0.5,"hold_cost":1}
	],"servers":2},"policy":"cmu","horizon":400,"burnin":50},"seed":%d,"replications":10}`,

	"bandit": `{"kind":"bandit","bandit":{"spec":{"beta":0.9,"projects":[
		{"transitions":[[0.5,0.5],[0.2,0.8]],"rewards":[1,0.3]},
		{"transitions":[[0.9,0.1],[0.4,0.6]],"rewards":[0.8,0.2]}
	]},"start":[0,0],"policy":"gittins"},"seed":%d,"replications":40}`,

	"restless": `{"kind":"restless","restless":{"spec":{"beta":0.9,
		"passive":{"transitions":[[0.7,0.3,0],[0,0.7,0.3],[0,0,1]],"rewards":[1,0.6,0.1]},
		"active":{"transitions":[[1,0,0],[1,0,0],[1,0,0]],"rewards":[-0.5,-0.5,-0.5]}},
		"n":10,"m":3,"policy":"whittle","horizon":150,"burnin":30},"seed":%d,"replications":10}`,

	"batch": `{"kind":"batch","batch":{"spec":{"jobs":[
		{"weight":3,"dist":{"kind":"exp","rate":2}},
		{"weight":1,"dist":{"kind":"uniform","lo":0.2,"hi":1.2}},
		{"weight":2,"dist":{"kind":"det","value":0.7}}
	],"machines":2},"policy":"wsept"},"seed":%d,"replications":40}`,

	"jackson": `{"kind":"jackson","jackson":{"spec":{"stations":2,"classes":[
		{"station":0,"rate":0.8,"service_mean":0.5,"hold_cost":2,"next":1},
		{"station":1,"service_mean":0.4,"hold_cost":1}
	]},"policy":"fcfs","horizon":300,"burnin":50},"seed":%d,"replications":10}`,

	"polling": `{"kind":"polling","polling":{"spec":{"queues":[
		{"rate":0.4,"service_mean":0.6,"hold_cost":2},
		{"rate":0.3,"service_mean":1,"hold_cost":1}
	],"switch":{"kind":"det","value":0.1}},"policy":"exhaustive","horizon":300,"burnin":50},"seed":%d,"replications":10}`,

	"mdp": `{"kind":"mdp","mdp":{"spec":{"actions":[
		{"transitions":[[0.9,0.1],[0.6,0.4]],"rewards":[1,0]},
		{"transitions":[[0.2,0.8],[0.3,0.7]],"rewards":[2,-1]}
	]},"policy":"optimal","horizon":400,"burnin":50},"seed":%d,"replications":10}`,

	"flowshop": `{"kind":"flowshop","flowshop":{"spec":{"jobs":[
		{"stages":[{"kind":"exp","rate":2},{"kind":"exp","rate":1}]},
		{"stages":[{"kind":"exp","rate":1},{"kind":"exp","rate":2}]},
		{"stages":[{"kind":"exp","rate":1.5},{"kind":"exp","rate":1.5}]}
	]},"policy":"talwar"},"seed":%d,"replications":40}`,
}

// indexPayloads maps kind -> the canonical index payload fragment (what
// the kind's ParseIndexPayload accepts) for every kind with an Indexer.
var indexPayloads = map[string]string{
	"bandit": `{"beta":0.9,"transitions":[[0.5,0.5],[0.2,0.8]],"rewards":[1,0.3]}`,

	"restless": `{"beta":0.9,
		"passive":{"transitions":[[0.7,0.3,0],[0,0.7,0.3],[0,0,1]],"rewards":[1,0.6,0.1]},
		"active":{"transitions":[[1,0,0],[1,0,0],[1,0,0]],"rewards":[-0.5,-0.5,-0.5]},
		"n":10,"m":3}`,

	"mg1": `{"classes":[
		{"rate":0.3,"service_mean":0.5,"hold_cost":4},
		{"rate":0.2,"service_mean":1,"hold_cost":1}
	]}`,

	"mmm": `{"classes":[
		{"rate":0.8,"service_mean":1,"hold_cost":3},
		{"rate":0.6,"service_mean":0.5,"hold_cost":1}
	],"servers":2}`,

	"batch": `{"jobs":[
		{"weight":3,"dist":{"kind":"exp","rate":2}},
		{"weight":1,"dist":{"kind":"uniform","lo":0.2,"hi":1.2}},
		{"weight":2,"dist":{"kind":"det","value":0.7}}
	]}`,

	"jackson": `{"stations":2,"classes":[
		{"station":0,"rate":0.8,"service_mean":0.5,"hold_cost":2,"next":1},
		{"station":1,"service_mean":0.4,"hold_cost":1}
	]}`,

	"mdp": `{"actions":[
		{"transitions":[[0.9,0.1],[0.6,0.4]],"rewards":[1,0]},
		{"transitions":[[0.2,0.8],[0.3,0.7]],"rewards":[2,-1]}
	]}`,
}

// SimulateBody returns the canonical /v1/simulate body of the kind with
// the given seed spliced in, or "" when the kind has no registered body.
func SimulateBody(kind string, seed uint64) string {
	t, ok := simulateBodies[kind]
	if !ok {
		return ""
	}
	return fmt.Sprintf(t, seed)
}

// IndexPayload returns the canonical index payload fragment of the kind
// (the input of its ParseIndexPayload), or "" when none is registered.
func IndexPayload(kind string) string { return indexPayloads[kind] }

// IndexBody returns the canonical /v1/index envelope of the kind, or ""
// when the kind has no index payload.
func IndexBody(kind string) string {
	p, ok := indexPayloads[kind]
	if !ok {
		return ""
	}
	return fmt.Sprintf(`{"kind":%q,%q:%s}`, kind, kind, p)
}

// SimulateKinds returns the kinds with a simulate body, sorted.
func SimulateKinds() []string {
	out := make([]string, 0, len(simulateBodies))
	for k := range simulateBodies {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
