// Package seal is a from-scratch reproduction of "SEALing Neural Network
// Models in Encrypted Deep Learning Accelerators" (Zuo, Hua, Liang, Xie,
// Hu, Xie — DAC 2021).
//
// SEAL protects neural-network models in accelerator DRAM against
// memory-bus snooping. Full memory encryption throttles the >160 GB/s
// GDDR bus to the ~8 GB/s of a hardware AES engine; SEAL's
// criticality-aware smart encryption (SE) instead ranks each layer's
// kernel rows by ℓ1-norm, encrypts only the most important fraction
// (50 % by default) together with the feature-map channels those rows
// consume, and lets the rest of the traffic bypass the engines — same
// security, ~1.34-1.4× the encrypted-GPU performance.
//
// The package is a façade over the implementation:
//
//   - models:  VGG-16 / ResNet-18 / ResNet-34 architectures and
//     trainable instances (internal/models, internal/nn)
//   - Plan:    the SE decision — per-layer encrypted kernel rows and
//     feature-map channels (internal/core)
//   - Layout:  the EMalloc address space mapping every tensor to
//     simulated DRAM with per-line ciphertext marking (internal/core)
//   - Sim:     a GTX480-like cycle simulator with per-channel AES
//     engines in direct or counter mode (internal/gpu et al.)
//   - exp:     runners reproducing every table and figure of the
//     paper's evaluation (internal/exp)
//
// A minimal end-to-end flow is one call: Prepare builds the model,
// smart-encryption plan, EMalloc layout, sealed memory image and
// streaming secure-inference engine as a single bundle:
//
//	arch := seal.ResNet18().Scale(0.25, 0)
//	p, _ := seal.Prepare(arch, 42, seal.WithKey(seal.KeyFromString("demo")))
//	fmt.Printf("ciphertext fraction: %.2f\n", p.Layout().EncryptedFraction())
//	logits, err := p.Forward(x) // streamed from the sealed image
//
// The five individual constructors (BuildModel, NewPlan, NewLayout,
// NewMemoryImage, NewSecureEngine) remain as the low-level API.
// cmd/sealserve hosts Prepared bundles behind a multi-tenant HTTP
// gateway (internal/serve), sealing each deployment under a fresh key
// derived from the tenant's Key.DeriveSubKey.
//
// See examples/ for runnable programs and cmd/ for the experiment
// binaries.
package seal

import (
	"fmt"

	"seal/internal/attack"
	"seal/internal/core"
	"seal/internal/dataset"
	"seal/internal/exp"
	"seal/internal/gpu"
	"seal/internal/models"
	"seal/internal/prng"
	"seal/internal/secure"
	"seal/internal/tensor"
	"seal/internal/trace"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving users stable names.
type (
	// Arch is a CNN architecture description (geometry only).
	Arch = models.Arch
	// LayerSpec is the geometry of one layer.
	LayerSpec = models.LayerSpec
	// Model is a trainable network instance.
	Model = models.Model
	// Options tunes smart-encryption planning.
	Options = core.Options
	// Plan is the smart-encryption decision for a network.
	Plan = core.Plan
	// LayerPlan is the decision for one weight layer.
	LayerPlan = core.LayerPlan
	// Layout is the EMalloc memory image of a planned network.
	Layout = core.Layout
	// Region is one allocation in the simulated address space.
	Region = core.Region
	// AddressSpace exposes the paper's malloc/emalloc primitives.
	AddressSpace = core.AddressSpace
	// MemoryImage is the byte-accurate DRAM view of a planned network's
	// weights, with real AES-GCM on the plan's ciphertext blocks and a
	// GMAC tag on every other block.
	MemoryImage = core.MemoryImage
	// SecureEngine streams a model's forward pass from the sealed
	// MemoryImage, verifying and decrypting each weight panel just
	// before the GEMMs that consume it.
	SecureEngine = secure.Engine
	// SecureStats counts a SecureEngine's memory-side work.
	SecureStats = secure.Stats
	// SimConfig describes the simulated GPU.
	SimConfig = gpu.Config
	// Sim is the GPU cycle simulator.
	Sim = gpu.Sim
	// SimResult summarizes one simulation run.
	SimResult = gpu.Result
	// EncMode selects the memory-encryption scheme.
	EncMode = gpu.EncMode
	// Stream is one SM's instruction/memory trace.
	Stream = gpu.Stream
	// Op is one trace element: compute followed by a memory access.
	Op = gpu.Op
	// Tensor is the dense float32 tensor every forward pass consumes
	// and produces.
	Tensor = tensor.Tensor
	// TraceParams tunes the workload-to-trace execution model.
	TraceParams = trace.Params
	// Dataset is a labeled image set.
	Dataset = dataset.Dataset
	// TrainConfig controls SGD training runs.
	TrainConfig = attack.TrainConfig
	// TimingConfig parameterizes the simulator experiments.
	TimingConfig = exp.TimingConfig
	// SecurityConfig parameterizes the substitute-model experiments.
	SecurityConfig = exp.SecurityConfig
	// Table is a formatted experiment result.
	Table = exp.Table
)

// Encryption modes of the simulated GPU.
const (
	ModeNone    = gpu.ModeNone
	ModeDirect  = gpu.ModeDirect
	ModeCounter = gpu.ModeCounter
)

// VGG16 returns the CIFAR-10 VGG-16 geometry (13 CONV + 3 FC).
func VGG16() *Arch { return models.VGG16Arch() }

// ResNet18 returns the CIFAR-10 ResNet-18 geometry (17 CONV + 1 FC).
func ResNet18() *Arch { return models.ResNet18Arch() }

// ResNet34 returns the CIFAR-10 ResNet-34 geometry (33 CONV + 1 FC).
func ResNet34() *Arch { return models.ResNet34Arch() }

// ArchByName resolves "vgg16", "resnet18" or "resnet34"; unknown names
// wrap ErrUnknownArch.
func ArchByName(name string) (*Arch, error) {
	a, err := models.ArchByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (want vgg16, resnet18 or resnet34)", ErrUnknownArch, name)
	}
	return a, nil
}

// NewTensor allocates a zeroed tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// BuildModel constructs a trainable model with He-initialized weights
// from the deterministic seed.
func BuildModel(a *Arch, seed uint64) (*Model, error) {
	return models.Build(a, prng.New(seed))
}

// DefaultOptions returns the paper's SE configuration: 50 % ratio,
// ℓ1-norm importance, full encryption of the boundary layers.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewPlan computes the smart-encryption plan for a model.
func NewPlan(m *Model, opts Options) (*Plan, error) { return core.NewPlan(m, opts) }

// NewLayout materializes a plan's EMalloc address space for an
// inference batch size.
func NewLayout(p *Plan, batch int) (*Layout, error) { return core.NewLayout(p, batch) }

// NewMemoryImage materializes the DRAM bytes of a model's weights in
// the layout and seals every block under the sealing key: AES-128-GCM
// for the planned ciphertext blocks, a GMAC tag for the rest — the
// functional counterpart of the timing simulator (Snoop/Audit show
// exactly what a bus adversary captures, Tamper what an active one
// changes). A key must seal one image only (see WithKey). The validated Key type
// replaces the raw []byte key of earlier revisions; the raw-slice path
// survives only as the low-level core.NewMemoryImage and is deprecated
// for callers of this package.
func NewMemoryImage(l *Layout, m *Model, key Key) (*MemoryImage, error) {
	return core.NewMemoryImage(l, m, key.b[:])
}

// NewSecureEngine builds a streaming secure-inference engine over an
// encrypted image and the model whose plan produced it: Forward runs
// inference with every conv/FC weight decrypted panel-by-panel from the
// image, bit-identical to the plaintext forward pass.
func NewSecureEngine(img *MemoryImage, m *Model) (*SecureEngine, error) {
	return secure.NewEngine(img, m, 0)
}

// GTX480 returns the paper's simulated GPU configuration (15 SMs, six
// GDDR5 channels at ≈177 GB/s, one 8 GB/s AES engine per memory
// controller).
func GTX480() SimConfig { return gpu.ConfigGTX480() }

// NewSim constructs a GPU simulator.
func NewSim(cfg SimConfig) (*Sim, error) { return gpu.New(cfg) }

// SyntheticCIFAR10 generates n samples of the synthetic CIFAR-10
// stand-in used by the security experiments (see DESIGN.md for the
// substitution rationale).
func SyntheticCIFAR10(seed uint64, n int) *Dataset {
	return dataset.NewGenerator(dataset.DefaultConfig(), seed).Sample(n)
}

// Train runs SGD on a model, honouring any weight freeze masks.
func Train(m *Model, ds *Dataset, cfg TrainConfig, seed uint64) {
	attack.Train(m, ds, cfg, prng.New(seed))
}

// DefaultTrainConfig returns training settings suited to width-scaled
// models on the synthetic dataset.
func DefaultTrainConfig() TrainConfig { return attack.DefaultTrainConfig() }

// Accuracy evaluates classification accuracy of m on ds.
func Accuracy(m *Model, ds *Dataset) float64 { return attack.Accuracy(m, ds) }

// DefaultTimingConfig returns the paper-scale simulator experiment
// configuration; QuickTimingConfig is a fast smoke-scale variant.
func DefaultTimingConfig() TimingConfig { return exp.DefaultTimingConfig() }

// QuickTimingConfig returns a reduced configuration for smoke runs.
func QuickTimingConfig() TimingConfig { return exp.QuickTimingConfig() }
