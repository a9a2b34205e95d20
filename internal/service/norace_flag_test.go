//go:build !race

package service

// raceBuild reports a -race build. The race detector makes sync.Pool
// drop and miss at random, so exact allocation counts vary call to call.
const raceBuild = false
