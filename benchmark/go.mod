module scalerpc/benchmark

go 1.22

require scalerpc v0.0.0

replace scalerpc => ../
