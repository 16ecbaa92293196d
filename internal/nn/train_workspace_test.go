package nn

import (
	"testing"

	"seal/internal/parallel"
	"seal/internal/prng"
)

// TestTrainStepZeroAllocs is the allocation regression test for the
// training workspace path (mirroring TestConvInferenceZeroAllocs):
// after one warm-up step, a full train step — train-mode forward,
// softmax cross-entropy, backward, gradient clip, optimizer step — must
// not touch the heap. It pins the pool to one worker: the multi-worker
// paths allocate their dispatch closures and per-chunk panels, and the
// zero-alloc target is defined on a 1-core host. The net covers every
// backward-path layer kind (Conv2D, BatchNorm2D, ReLU, MaxPool2D,
// AvgPool2D, Flatten, Linear) plus a freeze mask, so a regression in
// any layer's buffer reuse fails the test.
func TestTrainStepZeroAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	net := trajNet(401)
	trajFreeze(net)
	r := prng.New(402)
	x := randomBatch(r, 8, 2, 8, 8)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 4
	}
	params := net.Params()
	opt := NewSGD(0.05, 0.9, 1e-4)
	var ce SoftmaxCE

	step := func() {
		out := net.Forward(x, true)
		_, grad := ce.Loss(out, labels)
		net.Backward(grad)
		ClipGradNorm(params, 5)
		opt.Step(params)
	}
	step() // warm-up: builds every workspace and the SGD velocity state

	allocs := testing.AllocsPerRun(20, step)
	if allocs != 0 {
		t.Fatalf("warm train step allocates %.1f objects/op, want 0", allocs)
	}
}
