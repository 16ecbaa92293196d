package nn

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"seal/internal/parallel"
	"seal/internal/prng"
	"seal/internal/tensor"
)

// trajGolden is the schema of testdata/train_golden.json: per-step
// losses (hex float64, exact round-trip) and an FNV-64a hash of the
// final weight bytes for each mask scenario. The file is
// generated with SEAL_UPDATE_GOLDEN=1 and pins training trajectories
// bit-for-bit across refactors of the backward/optimizer hot path.
type trajGolden struct {
	Scenarios map[string]trajResult `json:"scenarios"`
}

type trajResult struct {
	Losses  []string `json:"losses"`
	Weights string   `json:"weights"`
}

// trajNet builds the trajectory net: one of every backward-path layer
// kind (Conv2D with bias, BatchNorm2D, ReLU, MaxPool2D, AvgPool2D,
// Flatten, Linear), small enough for 10 steps in milliseconds.
func trajNet(seed uint64) *Sequential {
	r := prng.New(seed)
	return NewSequential("traj",
		NewConv2D("c1", r, 2, 4, 3, 1, 1, 8, 8),
		NewBatchNorm2D("bn1", 4),
		NewReLU("r1"),
		NewMaxPool2D("p1", 2, 2),
		NewAvgPool2D("p2", 2, 2),
		NewFlatten("flat"),
		NewLinear("fc", r, 4*2*2, 4),
	)
}

// trajFreeze installs the SEAL-style freeze masks the substitute runs
// use: the first half of the conv kernel and the first output row of
// the FC weight are pinned, everything else stays trainable.
func trajFreeze(net *Sequential) {
	var conv *Conv2D
	var fc *Linear
	WalkModules(net, func(m Module) {
		switch v := m.(type) {
		case *Conv2D:
			conv = v
		case *Linear:
			fc = v
		}
	})
	conv.Weight.Mask = tensor.New(conv.Weight.W.Shape...)
	for i := conv.Weight.W.Size() / 2; i < conv.Weight.W.Size(); i++ {
		conv.Weight.Mask.Data[i] = 1
	}
	fc.Weight.Mask = tensor.New(fc.Weight.W.Shape...)
	for i := fc.Out / 2 * fc.In; i < fc.Weight.W.Size(); i++ {
		fc.Weight.Mask.Data[i] = 1
	}
}

// runTrajectory trains the scenario net with SGD for 10 steps on a
// fixed batch and returns the per-step losses plus the final-weight
// hash.
func runTrajectory(t *testing.T, masked bool) trajResult {
	t.Helper()
	net := trajNet(101)
	if masked {
		trajFreeze(net)
	}
	r := prng.New(202)
	x := randomBatch(r, 8, 2, 8, 8)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 4
	}
	opt := NewSGD(0.05, 0.9, 1e-4)
	params := net.Params()
	res := trajResult{}
	for step := 0; step < 10; step++ {
		out := net.Forward(x, true)
		loss, grad := SoftmaxCrossEntropy(out, labels)
		net.Backward(grad)
		ClipGradNorm(params, 5)
		opt.Step(params)
		res.Losses = append(res.Losses, strconv.FormatFloat(loss, 'x', -1, 64))
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, p := range params {
		for _, v := range p.W.Data {
			bits := math.Float32bits(v)
			buf[0] = byte(bits)
			buf[1] = byte(bits >> 8)
			buf[2] = byte(bits >> 16)
			buf[3] = byte(bits >> 24)
			h.Write(buf[:])
		}
	}
	res.Weights = strconv.FormatUint(h.Sum64(), 16)
	return res
}

var trajScenarios = []struct {
	name   string
	masked bool
}{
	{"sgd", false},
	{"sgd_masked", true},
}

// TestTrainTrajectoryDeterministic is the training-path determinism
// property test: a 10-step trajectory (per-step loss and final weights)
// must be bit-identical run-to-run, between the default pool width and
// SEAL_WORKERS=1, and to the golden generated before the zero-allocation
// training path landed — covering Conv2D/Linear/BatchNorm/pool backward
// and SGD with momentum and clipping, with and without freeze masks.
func TestTrainTrajectoryDeterministic(t *testing.T) {
	goldenPath := filepath.Join("testdata", "train_golden.json")
	update := os.Getenv("SEAL_UPDATE_GOLDEN") != ""

	got := map[string]trajResult{}
	for _, sc := range trajScenarios {
		first := runTrajectory(t, sc.masked)
		again := runTrajectory(t, sc.masked)
		compareTraj(t, sc.name+" (run-to-run)", first, again)

		prev := parallel.SetWorkers(1)
		serial := runTrajectory(t, sc.masked)
		parallel.SetWorkers(8)
		wide := runTrajectory(t, sc.masked)
		parallel.SetWorkers(prev)
		compareTraj(t, sc.name+" (workers=1 vs default)", first, serial)
		compareTraj(t, sc.name+" (workers=8)", first, wide)

		got[sc.name] = first
	}

	if update {
		data, err := json.MarshalIndent(trajGolden{Scenarios: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with SEAL_UPDATE_GOLDEN=1): %v", err)
	}
	var want trajGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	for _, sc := range trajScenarios {
		w, ok := want.Scenarios[sc.name]
		if !ok {
			t.Fatalf("golden missing scenario %q", sc.name)
		}
		compareTraj(t, sc.name+" (vs golden)", w, got[sc.name])
	}
}

func compareTraj(t *testing.T, what string, want, got trajResult) {
	t.Helper()
	if len(want.Losses) != len(got.Losses) {
		t.Fatalf("%s: %d losses, want %d", what, len(got.Losses), len(want.Losses))
	}
	for i := range want.Losses {
		// Compare through the hex-float representation: it round-trips
		// float64 exactly, so equality here is bit equality.
		if want.Losses[i] != got.Losses[i] {
			t.Fatalf("%s: step-%d loss %s, want %s", what, i, got.Losses[i], want.Losses[i])
		}
	}
	if want.Weights != got.Weights {
		t.Fatalf("%s: final weight hash %s, want %s", what, got.Weights, want.Weights)
	}
}
