module wlanmcast/bench

go 1.22

require wlanmcast v0.0.0

replace wlanmcast => ../
