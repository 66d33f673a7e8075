package sched

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// CheckOptions reports, before pool construction, every way o asks for
// a capability that caps does not advertise — including an unsupported
// member of a non-empty list, such as an unknown Steal.Policy. A pool
// ignores what its backend cannot honour, so that registry sweeps can
// hand one Options to every row; callers that want fail-fast semantics
// (cmd/woolrun and the serving layer's lane construction) run this
// first and refuse to build the pool on a non-nil error.
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
	if p := o.Steal.Policy; p != "" && !slices.Contains(caps.StealPolicies, p) {
		if len(caps.StealPolicies) == 0 {
			errs = append(errs, fmt.Errorf("Steal.Policy %q: backend has no policy-driven victim selection", p))
		} else {
			errs = append(errs, fmt.Errorf("Steal.Policy %q: backend supports %s", p, strings.Join(caps.StealPolicies, ", ")))
		}
	}
	return errors.Join(errs...)
}
