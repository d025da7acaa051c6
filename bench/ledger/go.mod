module github.com/pangolin-go/pangolin/bench/ledger

go 1.24

require github.com/pangolin-go/pangolin v0.0.0

replace github.com/pangolin-go/pangolin => ../..
