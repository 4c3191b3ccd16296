// The benchmark is a module of its own so the root module's build and
// tests do not depend on it; the import path sits under flowercdn/, which
// is what lets it import the simulator's internal packages.
module flowercdn/bench

go 1.22

require flowercdn v0.0.0

replace flowercdn => ../
