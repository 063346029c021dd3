// The benchmark is a module of its own so that the product module's
// build and tests do not depend on it. Its import path sits under
// temporalrank/ so it may import temporalrank/internal/... (Go checks
// internal visibility by import path), which the per-layer rungs need.
module temporalrank/bench

go 1.24

require temporalrank v0.0.0

replace temporalrank => ../
