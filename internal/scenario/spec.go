package scenario

// The spec checks several kinds share: service/processing-time laws,
// transition matrices, and M/G/1-style customer classes. Each kind's own
// checks and model conversion live in its <kind>.go file. Error texts carry
// a "spec:" prefix; they are the messages of the service's 400 bodies.

import (
	"fmt"
	"math"

	"stochsched/internal/dist"
	"stochsched/internal/queueing"
	"stochsched/pkg/api"
)

// maxErlangK bounds the Erlang shape on the wire. dist.Erlang samples k
// uniforms per draw, so k is work no budget counts, and beyond a few
// hundred the uniforms' product underflows to zero.
const maxErlangK = 100

// distLaw checks the parameters of the selected family and returns the
// dist.Distribution the spec describes.
func distLaw(d *api.Dist) (dist.Distribution, error) {
	switch d.Kind {
	case "exp":
		if (d.Rate > 0) == (d.Mean > 0) {
			return nil, fmt.Errorf("spec: exp law needs exactly one of rate, mean positive (rate=%v mean=%v)", d.Rate, d.Mean)
		}
		if !finite(d.Rate) || !finite(d.Mean) || d.Rate < 0 || d.Mean < 0 {
			return nil, fmt.Errorf("spec: exp law has negative or non-finite parameter")
		}
		rate := d.Rate
		if rate == 0 {
			rate = 1 / d.Mean
		}
		return dist.Exponential{Rate: rate}, nil
	case "det":
		if !(d.Value > 0) || !finite(d.Value) {
			return nil, fmt.Errorf("spec: det law needs a positive value, got %v", d.Value)
		}
		return dist.Deterministic{Value: d.Value}, nil
	case "uniform":
		if !finite(d.Lo) || !finite(d.Hi) || d.Lo < 0 || d.Hi <= d.Lo {
			return nil, fmt.Errorf("spec: uniform law needs 0 <= lo < hi, got [%v, %v]", d.Lo, d.Hi)
		}
		return dist.Uniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "erlang":
		if d.K < 1 || !(d.Rate > 0) || !finite(d.Rate) {
			return nil, fmt.Errorf("spec: erlang law needs k >= 1 and positive rate, got k=%d rate=%v", d.K, d.Rate)
		}
		if d.K > maxErlangK {
			return nil, fmt.Errorf("spec: erlang law needs k <= %d, got k=%d", maxErlangK, d.K)
		}
		return dist.Erlang{K: d.K, Rate: d.Rate}, nil
	}
	return nil, fmt.Errorf("spec: unknown distribution kind %q (want exp, det, uniform, or erlang)", d.Kind)
}

// checkMatrix validates the shape and finiteness of a transition matrix and
// its reward vector (stochasticity is checked by the model's own Validate).
func checkMatrix(rows [][]float64, rewards []float64) error {
	n := len(rows)
	if n == 0 {
		return fmt.Errorf("spec: empty transition matrix")
	}
	for i, row := range rows {
		if len(row) != n {
			return fmt.Errorf("spec: transition row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if !finite(v) {
				return fmt.Errorf("spec: transition[%d][%d] is not finite", i, j)
			}
		}
	}
	if len(rewards) != n {
		return fmt.Errorf("spec: %d rewards for %d states", len(rewards), n)
	}
	for i, r := range rewards {
		if !finite(r) {
			return fmt.Errorf("spec: reward %d is not finite", i)
		}
	}
	return nil
}

// classes converts a non-empty class list into queueing classes.
func classes(list []api.Class) ([]queueing.Class, error) {
	if len(list) == 0 {
		return nil, fmt.Errorf("spec: system has no classes")
	}
	cs := make([]queueing.Class, len(list))
	for i := range list {
		c, err := toClass(&list[i], i)
		if err != nil {
			return nil, fmt.Errorf("class %d: %w", i, err)
		}
		cs[i] = c
	}
	return cs, nil
}

// toClass rejects nonpositive rates and means, negative costs, and
// non-finite values, and converts into the queueing model's class,
// defaulting the name to c<i+1>.
func toClass(c *api.Class, i int) (queueing.Class, error) {
	var zero queueing.Class
	if !(c.Rate > 0) || !finite(c.Rate) {
		return zero, fmt.Errorf("spec: class needs a positive arrival rate, got %v", c.Rate)
	}
	if c.HoldCost < 0 || !finite(c.HoldCost) {
		return zero, fmt.Errorf("spec: class needs a nonnegative holding cost, got %v", c.HoldCost)
	}
	if (c.ServiceMean != 0) == (c.Service != nil) {
		return zero, fmt.Errorf("spec: class needs exactly one of service_mean, service")
	}
	var law dist.Distribution
	if c.Service != nil {
		var err error
		if law, err = distLaw(c.Service); err != nil {
			return zero, err
		}
	} else {
		if !(c.ServiceMean > 0) || !finite(c.ServiceMean) {
			return zero, fmt.Errorf("spec: class needs a positive service mean, got %v", c.ServiceMean)
		}
		law = dist.Exponential{Rate: 1 / c.ServiceMean}
	}
	name := c.Name
	if name == "" {
		name = fmt.Sprintf("c%d", i+1)
	}
	return queueing.Class{Name: name, ArrivalRate: c.Rate, Service: law, HoldCost: c.HoldCost}, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
