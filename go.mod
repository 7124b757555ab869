module dsmsim

go 1.23
