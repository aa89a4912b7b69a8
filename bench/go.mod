// The benchmark is a module of its own so that the repository's build
// and tests do not include it. Its import path sits under streamkf/, so
// it may import streamkf/internal/... (all of that is in sut.go).
module streamkf/bench

go 1.22

require streamkf v0.0.0

replace streamkf => ../
