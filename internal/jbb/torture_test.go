//go:build gctorture

package jbb

func init() { tortureBuild = true }
