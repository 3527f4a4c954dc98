module fzmod/benchmark

go 1.21

require fzmod v0.0.0

replace fzmod => ../
