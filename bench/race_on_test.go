//go:build race

package main

// raceBuild tells the smoke test that the race detector slows the system
// several times over, so the fixed offered rates overload it and probes
// time out; the test then checks everything but the failure count.
const raceBuild = true
