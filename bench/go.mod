// The benchmark is a module of its own so it builds from its own
// directory; the rtoss/ path prefix is what lets it import the repo's
// internal packages.
module rtoss/bench

go 1.24

require rtoss v0.0.0

replace rtoss => ../
