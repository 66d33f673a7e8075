package sched

import (
	"errors"
	"fmt"
	"strings"
)

// CheckOptions reports, before pool construction, every way o asks for
// a capability that caps does not advertise. Historically the adapters
// silently ignored unsupported options (by design, so registry sweeps
// can hand one Options to every backend), and the CLIs only rejected a
// flag when the backend had no capability list at all — so a flag
// naming an unsupported member of a non-empty list (for example
// -stealamount half on the direct task stack, which only takes one
// task per steal) fell back to the default without a word. Callers
// that want fail-fast semantics — cmd/woolrun and the serving layer's
// lane construction — run this first and refuse to build the pool on a
// non-nil error.
//
// The returned error joins one entry per violation (errors.Join), each
// naming the offending option and listing the supported values.
func CheckOptions(caps Caps, o Options) error {
	var errs []error
	if o.Trace != nil && !caps.Trace {
		errs = append(errs, errors.New("Trace: backend does not support tracing"))
	}
	if o.Chaos != nil && !caps.Chaos {
		errs = append(errs, errors.New("Chaos: backend does not support chaos injection"))
	}
	if o.Watchdog > 0 && !caps.Watchdog {
		errs = append(errs, errors.New("Watchdog: backend does not support stuck-run detection"))
	}
	if o.PrivateTasks && !caps.PrivateTasks {
		errs = append(errs, errors.New("PrivateTasks: backend does not implement the private-task optimization"))
	}
	if p := o.Steal.Policy; p != "" && !containsName(caps.StealPolicies, p) {
		if len(caps.StealPolicies) == 0 {
			errs = append(errs, fmt.Errorf("Steal.Policy %q: backend has no policy-driven victim selection", p))
		} else {
			errs = append(errs, fmt.Errorf("Steal.Policy %q: backend supports %s", p, strings.Join(caps.StealPolicies, ", ")))
		}
	}
	if a := o.Steal.Amount; a != "" && !containsName(caps.StealAmounts, a) {
		if len(caps.StealAmounts) == 0 {
			errs = append(errs, fmt.Errorf("Steal.Amount %q: backend has no configurable steal amount", a))
		} else {
			errs = append(errs, fmt.Errorf("Steal.Amount %q: backend supports %s", a, strings.Join(caps.StealAmounts, ", ")))
		}
	}
	return errors.Join(errs...)
}

func containsName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}
