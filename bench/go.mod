module commfree/bench

go 1.22

require commfree v0.0.0

replace commfree => ../
