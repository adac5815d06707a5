// The benchmark is a module of its own so that it builds from this
// directory alone; its path sits under streamsum/ so that it may import
// streamsum/internal/... and measure every layer from outside.
module streamsum/benchmark

go 1.24

require streamsum v0.0.0

replace streamsum => ../
