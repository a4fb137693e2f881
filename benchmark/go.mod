module onlinetuner/benchmark

go 1.22

require onlinetuner v0.0.0

replace onlinetuner => ../
