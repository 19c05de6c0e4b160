// The benchmark is a module of its own so that it builds and tests apart
// from the simulator; the dpa/ prefix is what lets it import dpa/internal/*.
module dpa/bench

go 1.22

require dpa v0.0.0

replace dpa => ../
