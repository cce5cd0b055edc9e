// Package api is the public wire contract of the stochsched policy
// service: every request and response body the HTTP API speaks, as plain
// typed Go data with canonical JSON encodings.
//
// The package is deliberately free of behavior that needs the solvers —
// it imports nothing from internal/ — so external programs can depend on
// it to talk to a stochschedd daemon (directly or through pkg/client)
// without pulling in the simulation engine. The server, the bundled CLIs,
// and the client SDK all share these exact types, so the three can never
// disagree about a JSON shape.
//
// Contents:
//
//   - Problem specs (Bandit, BanditSystem, Restless, MG1, Batch, Dist):
//     the canonical model descriptions. Deep validation (stochasticity,
//     stability) happens server-side; the types here are the shapes.
//   - Simulate envelope (SimulateRequest / SimulateResponse) and the
//     per-kind payload/result fragments (MG1Sim/MG1Result, …).
//   - Index requests and responses (IndexRequest, GittinsResponse,
//     WhittleResponse, PriorityResponse) for POST /v1/index.
//   - Batch multiplexing (BatchRequest / BatchResponse) for POST /v1/batch.
//   - Sweeps (SweepRequest, SweepStatus, SweepRow, Grid) for /v1/sweep.
//   - Stats (StatsResponse) for GET /v1/stats.
//   - The error envelope (ErrorResponse) shared by every endpoint.
//
// # Canonical hashing
//
// Responses echo a spec_hash: the hex SHA-256 of the request's canonical
// compact JSON (see Hash and SimulateRequest.SpecHash). The server
// memoizes on the same hash, which makes every call idempotent — the
// property pkg/client's retry and batching transports rely on. All types
// here are plain data (no maps), so their JSON encoding, and therefore
// their hash, is deterministic.
package api
