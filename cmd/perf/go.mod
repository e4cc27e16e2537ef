module jxtaoverlay/cmd/perf

go 1.23

require jxtaoverlay v0.0.0

replace jxtaoverlay => ../..
