module tcqr/benchmark

go 1.22

require tcqr v0.0.0

replace tcqr => ../
