module tatooine/bench

go 1.24

require tatooine v0.0.0

replace tatooine => ../
