module ice/bench

go 1.22

require ice v0.0.0

replace ice => ../
