module crowdram/bench

go 1.22

require crowdram v0.0.0

replace crowdram => ../
