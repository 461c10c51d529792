module bfc/bench

go 1.24

require bfc v0.0.0

replace bfc => ../
