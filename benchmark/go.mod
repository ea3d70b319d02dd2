module tpal/benchmark

go 1.22

require tpal v0.0.0

replace tpal => ../
