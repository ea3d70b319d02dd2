//go:build race

package serve

// raceDetectorOn reports whether this test binary was built with the
// race detector — the mode of `make serve-test`, and the only one slow
// enough for TestLoadSmoke to demand a singleflight collapse.
const raceDetectorOn = true
