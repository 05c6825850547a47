module softdb/benchmark

go 1.22

require softdb v0.0.0

replace softdb => ../
