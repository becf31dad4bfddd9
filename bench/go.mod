module avdb/bench

go 1.22

require avdb v0.0.0

replace avdb => ../
