package markov

import (
	"fmt"
	"math"
	"testing"

	"stochsched/internal/linalg"
	"stochsched/internal/rng"
)

// averageGainOfPolicy computes the long-run average reward of a fixed
// stationary policy on a unichain MDP: the stationary distribution of P_π
// weighted by r_π.
func averageGainOfPolicy(transitions []*linalg.Matrix, rewards [][]float64, policy []int) (float64, error) {
	if len(transitions) == 0 {
		return 0, fmt.Errorf("markov: no actions")
	}
	n := transitions[0].Rows
	if len(policy) != n {
		return 0, fmt.Errorf("markov: policy length %d, want %d", len(policy), n)
	}
	p := linalg.NewMatrix(n, n)
	r := make([]float64, n)
	for s := 0; s < n; s++ {
		a := policy[s]
		if a < 0 || a >= len(transitions) {
			return 0, fmt.Errorf("markov: policy action %d out of range at state %d", a, s)
		}
		for j := 0; j < n; j++ {
			p.Set(s, j, transitions[a].At(s, j))
		}
		r[s] = rewards[a][s]
	}
	chain, err := NewChain(p)
	if err != nil {
		return 0, err
	}
	pi, err := stationary(chain)
	if err != nil {
		return 0, err
	}
	gain := 0.0
	for i := range pi {
		gain += pi[i] * r[i]
	}
	return gain, nil
}

// A two-action chain where action 1 pays more in every state: the optimal
// gain is the stationary average of the better action's rewards.
func TestRVIDominatingAction(t *testing.T) {
	p := linalg.FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	r0 := []float64{0, 0}
	r1 := []float64{1, 2}
	gain, bias, pol, err := RelativeValueIteration(
		[]*linalg.Matrix{p, p}, [][]float64{r0, r1}, nil, 1e-10, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range pol {
		if a != 1 {
			t.Fatalf("policy[%d] = %d, want 1", s, a)
		}
	}
	// π of P: q/(p+q) formula with p=0.3, q=0.4 → π = (4/7, 3/7).
	want := 4.0/7*1 + 3.0/7*2
	if math.Abs(gain-want) > 1e-6 {
		t.Fatalf("gain = %v, want %v", gain, want)
	}
	if bias[0] != 0 {
		t.Fatalf("bias not normalized: h(0) = %v", bias[0])
	}
}

func TestRVIMatchesPolicyGain(t *testing.T) {
	// The RVI-optimal gain must equal the gain of its greedy policy
	// evaluated independently via the stationary distribution.
	s := rng.New(50)
	for trial := 0; trial < 20; trial++ {
		n := 3
		mk := func() *linalg.Matrix {
			m := linalg.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				sum := 0.0
				row := make([]float64, n)
				for j := range row {
					row[j] = s.Float64Open()
					sum += row[j]
				}
				for j := range row {
					m.Set(i, j, row[j]/sum)
				}
			}
			return m
		}
		transitions := []*linalg.Matrix{mk(), mk()}
		rewards := [][]float64{make([]float64, n), make([]float64, n)}
		for a := 0; a < 2; a++ {
			for i := 0; i < n; i++ {
				rewards[a][i] = s.Float64()
			}
		}
		gain, _, pol, err := RelativeValueIteration(transitions, rewards, nil, 1e-11, 200000)
		if err != nil {
			t.Fatal(err)
		}
		check, err := averageGainOfPolicy(transitions, rewards, pol)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gain-check) > 1e-6 {
			t.Fatalf("trial %d: RVI gain %v, policy gain %v", trial, gain, check)
		}
		// No other deterministic policy of the 2^3 should beat it.
		for mask := 0; mask < 8; mask++ {
			alt := []int{mask & 1, (mask >> 1) & 1, (mask >> 2) & 1}
			g, err := averageGainOfPolicy(transitions, rewards, alt)
			if err != nil {
				t.Fatal(err)
			}
			if g > gain+1e-6 {
				t.Fatalf("trial %d: policy %v gain %v beats RVI %v", trial, alt, g, gain)
			}
		}
	}
}

func TestRVIPeriodicChainConverges(t *testing.T) {
	// A deterministic 2-cycle is periodic; the damping transform must still
	// converge. Rewards 0 and 2 alternate → gain 1.
	p := linalg.FromRows([][]float64{{0, 1}, {1, 0}})
	gain, _, _, err := RelativeValueIteration(
		[]*linalg.Matrix{p}, [][]float64{{0, 2}}, nil, 1e-10, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gain-1) > 1e-6 {
		t.Fatalf("gain = %v, want 1", gain)
	}
}

func TestPolicyIterationMatchesValueIteration(t *testing.T) {
	s := rng.New(51)
	for trial := 0; trial < 20; trial++ {
		n := 4
		mk := func() *linalg.Matrix {
			m := linalg.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				sum := 0.0
				row := make([]float64, n)
				for j := range row {
					row[j] = s.Float64Open()
					sum += row[j]
				}
				for j := range row {
					m.Set(i, j, row[j]/sum)
				}
			}
			return m
		}
		transitions := []*linalg.Matrix{mk(), mk(), mk()}
		rewards := make([][]float64, 3)
		for a := range rewards {
			rewards[a] = make([]float64, n)
			for i := range rewards[a] {
				rewards[a][i] = s.Float64()
			}
		}
		beta := 0.9
		vVI, _, err := ValueIteration(transitions, rewards, nil, beta, 1e-10, 1000000)
		if err != nil {
			t.Fatal(err)
		}
		vPI, _, err := PolicyIteration(transitions, rewards, beta, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vVI {
			if math.Abs(vVI[i]-vPI[i]) > 1e-6 {
				t.Fatalf("trial %d state %d: VI %v vs PI %v", trial, i, vVI[i], vPI[i])
			}
		}
	}
}

// A random 4-state restless project at β = 0.99 whose passive rewards
// carry a subsidy within rounding of a state's Whittle index (R₀ +
// 0.5371677283370788). At that state both actions are worth about 70 and
// tie to within the evaluation's rounding, which is larger than an
// absolute 1e-12: an improvement step that picks the best action afresh
// each time flips the state back and forth and never settles.
func TestPolicyIterationSettlesOnNearTie(t *testing.T) {
	transitions := []*linalg.Matrix{
		linalg.FromRows([][]float64{
			{0.34505737174120465, 0.1186114715366933, 0.22131137934939157, 0.3150197773727105},
			{0.39198605507417733, 0.35595504951951445, 0.042458526922735655, 0.20960036848357244},
			{0.3300542619492916, 0.12336996461042161, 0.1812758743672571, 0.3652998990730297},
			{0.36588419771315434, 0.47283525245127744, 0.05146263661323943, 0.10981791322232874},
		}),
		linalg.FromRows([][]float64{
			{0.22682568830463987, 0.2539101617169115, 0.2513867734214912, 0.2678773765569576},
			{0.34009750415180834, 0.2089732859458332, 0.13752176193410198, 0.31340744796825654},
			{0.16276436775553646, 0.25368578630109156, 0.40980684128478156, 0.17374300465859033},
			{0.32541910033983334, 0.0669494244763213, 0.2224290148738955, 0.3852024603099499},
		}),
	}
	rewards := [][]float64{
		{0.6377363068889546, 0.7913169520852408, 0.8498485771172201, 0.8182554727542579},
		{0.6307279012669647, 0.29975839356245115, 0.5784646085831302, 0.9240744892608723},
	}
	const beta = 0.99
	vPI, _, err := PolicyIteration(transitions, rewards, beta, 1000)
	if err != nil {
		t.Fatal(err)
	}
	vVI, _, err := ValueIteration(transitions, rewards, nil, beta, 1e-10, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vVI {
		if math.Abs(vVI[i]-vPI[i]) > 1e-6 {
			t.Fatalf("state %d: VI %v vs PI %v", i, vVI[i], vPI[i])
		}
	}
}

func TestAverageGainValidation(t *testing.T) {
	p := linalg.FromRows([][]float64{{1}})
	if _, err := averageGainOfPolicy([]*linalg.Matrix{p}, [][]float64{{1}}, []int{5}); err == nil {
		t.Error("out-of-range action accepted")
	}
	if _, err := averageGainOfPolicy(nil, nil, nil); err == nil {
		t.Error("empty MDP accepted")
	}
}

func TestPolicyIterationValidation(t *testing.T) {
	p := linalg.FromRows([][]float64{{1}})
	if _, _, err := PolicyIteration([]*linalg.Matrix{p}, [][]float64{{1}}, 1.0, 10); err == nil {
		t.Error("beta = 1 accepted")
	}
}
