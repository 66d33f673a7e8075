// The benchmark is a module of its own so that it can be laid over any
// commit of gowool: it builds the scheduler from the source tree one
// directory up and measures it only through exported functions. The
// module path stays under gowool/ so the internal packages resolve.
module gowool/bench

go 1.24

require gowool v0.0.0

replace gowool => ../
