package resilience

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// EstimatorConfig tunes the per-(tenant, job class) service-time
// estimator behind deadline-aware admission.
type EstimatorConfig struct {
	// Alpha is the EWMA smoothing factor applied to each new
	// observation (estimate += alpha * (sample - estimate)).
	// Default 0.2.
	Alpha float64
	// MinSamples is how many observations a class needs before its
	// estimate is trusted for admission decisions — an unknown class
	// is always admitted. Default 8.
	MinSamples int
	// Margin scales the estimate in the unmeetable test: a submission
	// is shed when remaining < Margin × estimate. 1.0 sheds exactly at
	// the estimate; larger values shed earlier (safety margin for
	// queueing ahead of the request). Default 1.0.
	Margin float64
}

// Defaulted fills zero fields with the defaults.
func (c EstimatorConfig) Defaulted() EstimatorConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.Margin <= 0 {
		c.Margin = 1.0
	}
	return c
}

// Estimator tracks an EWMA of observed service times per job class
// (the job's declared name) for one tenant. Safe for concurrent use.
//
// Samples may also be fed lock-free, each writer through an
// EstimatorShard of its own (NewShard), with an EWMA per class per
// shard. Estimate then weighs each shard's EWMA by its sample count, and
// MinSamples applies to the total. With one writer that is the EWMA of
// every sample, bit for bit; with several it is the weighted mean of
// their EWMAs, which follows each writer's recent samples but, unlike
// one EWMA over the merged stream, does not forget a writer that has
// stopped (DESIGN.md §17.3).
type Estimator struct {
	cfg EstimatorConfig
	// parts maps a class to its per-shard estimates. It is replaced,
	// never changed, under mu, so Estimate reads it without the lock.
	parts atomic.Pointer[map[string][]*classEstimate]

	mu sync.Mutex
	// own holds Observe's estimates, one writer under mu.
	own map[string]*classEstimate
}

// classEstimate is one writer's EWMA of one class. The writer stores,
// Estimate loads; the padding keeps two writers' estimates, allocated
// side by side, off one cache line.
type classEstimate struct {
	ewmaNs  atomic.Uint64 // float64 bits
	samples atomic.Int64
	_       [48]byte
}

// observe folds one sample in; its caller is the estimate's one writer.
func (ce *classEstimate) observe(d time.Duration, alpha float64) {
	n := ce.samples.Load() + 1
	v := float64(d)
	if n > 1 {
		ewma := math.Float64frombits(ce.ewmaNs.Load())
		v = ewma + alpha*(v-ewma)
	}
	ce.ewmaNs.Store(math.Float64bits(v))
	ce.samples.Store(n)
}

// NewEstimator builds an estimator with cfg (zero fields defaulted).
func NewEstimator(cfg EstimatorConfig) *Estimator {
	e := &Estimator{cfg: cfg.Defaulted(), own: map[string]*classEstimate{}}
	e.parts.Store(&map[string][]*classEstimate{})
	return e
}

// add registers a new per-writer estimate of class (mu held).
func (e *Estimator) add(class string) *classEstimate {
	ce := new(classEstimate)
	old := *e.parts.Load()
	parts := make(map[string][]*classEstimate, len(old)+1)
	for k, v := range old {
		parts[k] = v
	}
	parts[class] = append(old[class][:len(old[class]):len(old[class])], ce)
	e.parts.Store(&parts)
	return ce
}

// Observe feeds one completed request's service time for class.
func (e *Estimator) Observe(class string, d time.Duration) {
	if d < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ce := e.own[class]
	if ce == nil {
		ce = e.add(class)
		e.own[class] = ce
	}
	ce.observe(d, e.cfg.Alpha)
}

// EstimatorShard feeds one writer's samples to an Estimator without its
// lock. It must have a single writer — the serving layer gives one to
// every (lane, tenant) pair — and caches the last class it saw, so a
// writer serving one class finds its estimate with one string compare.
type EstimatorShard struct {
	e       *Estimator
	class   string
	last    *classEstimate
	classes map[string]*classEstimate
}

// NewShard returns a shard of e for one writer.
func (e *Estimator) NewShard() *EstimatorShard {
	return &EstimatorShard{e: e, classes: map[string]*classEstimate{}}
}

// Observe feeds one completed request's service time for class.
func (sh *EstimatorShard) Observe(class string, d time.Duration) {
	if d < 0 {
		return
	}
	ce := sh.last
	if ce == nil || class != sh.class {
		if ce = sh.classes[class]; ce == nil {
			sh.e.mu.Lock()
			ce = sh.e.add(class)
			sh.e.mu.Unlock()
			sh.classes[class] = ce
		}
		sh.class, sh.last = class, ce
	}
	ce.observe(d, sh.e.cfg.Alpha)
}

// Estimate returns the class's current service-time estimate and
// whether it has enough samples to be trusted: the writers' EWMAs
// weighted by their sample counts, trusted at MinSamples in total.
func (e *Estimator) Estimate(class string) (time.Duration, bool) {
	var n int64
	var sum, only float64
	writers := 0
	for _, ce := range (*e.parts.Load())[class] {
		c := ce.samples.Load()
		if c == 0 {
			continue
		}
		only = math.Float64frombits(ce.ewmaNs.Load())
		sum += only * float64(c)
		n += c
		writers++
	}
	if n < int64(e.cfg.MinSamples) {
		return 0, false
	}
	if writers > 1 {
		return time.Duration(sum / float64(n)), true
	}
	return time.Duration(only), true
}

// Unmeetable reports whether a request of class with the given
// remaining deadline budget is doomed: the estimate is trusted and
// remaining < Margin × estimate. Classes without a trusted estimate
// are never unmeetable (admit and learn).
func (e *Estimator) Unmeetable(class string, remaining time.Duration) bool {
	est, ok := e.Estimate(class)
	if !ok {
		return false
	}
	return float64(remaining) < e.cfg.Margin*float64(est)
}
