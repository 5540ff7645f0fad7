module twopcp/benchmark

go 1.23

require twopcp v0.0.0

replace twopcp => ../
