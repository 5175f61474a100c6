module tcpfailover/benchmark

go 1.24

require tcpfailover v0.0.0

replace tcpfailover => ../
