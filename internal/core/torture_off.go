//go:build !gctorture

package core

// Outside the gctorture build (torture.go) every torture point compiles away.
const torture = false

const sharedRegime = manyMutators

type tortureState struct{}

// unlocker returns lockMu's unlock.
func (rt *Runtime) unlocker() func() { return rt.mu.Unlock }

func (rt *Runtime) torturePointUnlocked() {}
func (rt *Runtime) tortureBorn(Ref)       {}
func (rt *Runtime) checkPoison(Ref)       {}
