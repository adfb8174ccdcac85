package core

// Internals the differential arms in package core_test need. Those arms run
// over internal/heapscript, which imports core, so they cannot be in-package.

// SetGeometry sets the pacer's trigger fraction and assist slack, which only
// core's tests vary.
func SetGeometry(cfg *Config, trigger, slack float64) {
	cfg.gcTrigger, cfg.assistSlack = trigger, slack
}

// Solo reports whether rt is in the single-mutator regime.
func Solo(rt *Runtime) bool { return rt.solo() }
