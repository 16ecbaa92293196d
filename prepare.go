package seal

import (
	"fmt"

	"seal/internal/core"
	"seal/internal/models"
	"seal/internal/nn"
	"seal/internal/prng"
	"seal/internal/secure"
)

// PrepareOption customizes Prepare. The zero configuration is the
// paper's defaults: DefaultOptions planning, layout batch 1, the zero
// Key, and the secure engine's default panel budget.
type PrepareOption func(*prepareConfig)

type prepareConfig struct {
	opts       Options
	batch      int
	key        Key
	panelBytes int
	panelSet   bool
	int8       bool
}

// WithOptions sets the smart-encryption planning options (ratio,
// boundary-layer rules, importance metric).
func WithOptions(o Options) PrepareOption {
	return func(c *prepareConfig) { c.opts = o }
}

// WithBatch sets the inference batch size the layout's feature-map
// regions are dimensioned for.
func WithBatch(n int) PrepareOption {
	return func(c *prepareConfig) { c.batch = n }
}

// WithKey seals the memory image under k instead of the zero key. Each
// (key, nonce) pair is used once per image, and a nonce depends only on
// a block's address, so a key must seal one image only: sealing two
// models under one key would reuse every nonce. Derive a fresh key per
// image, as the serving gateway does.
func WithKey(k Key) PrepareOption {
	return func(c *prepareConfig) { c.key = k }
}

// WithPanelBytes sets the streaming engine's per-panel decrypt budget.
// n must be positive; omit the option to keep the engine default.
// Prepare rejects n <= 0 with a wrapped ErrBadOption.
func WithPanelBytes(n int) PrepareOption {
	return func(c *prepareConfig) { c.panelBytes = n; c.panelSet = true }
}

// WithInt8 seals the image in the quantized int8 layout: weights are
// stored one byte each (per-output-channel symmetric scales ride in a
// plaintext header), cutting ciphertext bus traffic ~4x, and the
// streaming engine runs the saturating int8 GEMM path. The prepared
// model's own eval forward is switched to the matching quantized path,
// so Prepared.Forward stays bit-identical to Model().Forward.
func WithInt8() PrepareOption {
	return func(c *prepareConfig) { c.int8 = true }
}

// Prepared bundles everything Prepare builds for one architecture: the
// trainable model, its smart-encryption plan, the EMalloc layout, the
// sealed memory image (AES-GCM on the planned weight blocks, GMAC tags
// on the rest) and a streaming secure-inference engine over it. It is the unit a serving system caches per registered model
// — build once, then run Forward (or one NewEngine engine per worker)
// against the sealed image for the deployment's lifetime.
type Prepared struct {
	arch       *Arch
	seed       uint64
	panelBytes int
	int8       bool

	model  *Model
	plan   *Plan
	layout *Layout
	image  *MemoryImage
	engine *SecureEngine
}

// Prepare collapses the five-step BuildModel → NewPlan → NewLayout →
// NewMemoryImage → NewSecureEngine chain into one call:
//
//	p, err := seal.Prepare(seal.VGG16().Scale(0.25, 0), 42,
//	        seal.WithKey(key), seal.WithBatch(16))
//	logits, err := p.Forward(x) // streamed from the sealed image
//
// The individual constructors remain available as the low-level API;
// Prepare is the supported front door and the only one the serving
// gateway uses. The weight initialization is deterministic in seed, so
// two Prepare calls with equal arguments produce bit-identical images
// and logits.
func Prepare(arch *Arch, seed uint64, opts ...PrepareOption) (*Prepared, error) {
	if arch == nil {
		return nil, fmt.Errorf("%w: nil architecture", ErrUnknownArch)
	}
	cfg := prepareConfig{opts: DefaultOptions(), batch: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.batch < 1 {
		return nil, fmt.Errorf("%w: batch %d, want >= 1", ErrBadOption, cfg.batch)
	}
	if cfg.panelSet && cfg.panelBytes <= 0 {
		return nil, fmt.Errorf("%w: panel bytes %d, want > 0 (omit WithPanelBytes for the engine default)", ErrBadOption, cfg.panelBytes)
	}
	p := &Prepared{arch: arch, seed: seed, panelBytes: cfg.panelBytes, int8: cfg.int8}
	var err error
	if p.model, err = models.Build(arch, prng.New(seed)); err != nil {
		return nil, err
	}
	if p.plan, err = core.NewPlan(p.model, cfg.opts); err != nil {
		return nil, err
	}
	newLayout := core.NewLayout
	if cfg.int8 {
		newLayout = core.NewInt8Layout
	}
	if p.layout, err = newLayout(p.plan, cfg.batch); err != nil {
		return nil, err
	}
	if p.image, err = core.NewMemoryImage(p.layout, p.model, cfg.key.b[:]); err != nil {
		return nil, err
	}
	if p.engine, err = secure.NewEngine(p.image, p.model, cfg.panelBytes); err != nil {
		return nil, err
	}
	if cfg.int8 {
		// Switch the bundled model's eval forward to the quantized path
		// so it stays the bit-identity reference for the int8 engine.
		nn.EnableInt8(p.model.Net)
	}
	return p, nil
}

// PrepareByName resolves the architecture by zoo name ("vgg16",
// "resnet18", "resnet34") and prepares it. Unknown names wrap
// ErrUnknownArch.
func PrepareByName(name string, seed uint64, opts ...PrepareOption) (*Prepared, error) {
	arch, err := ArchByName(name)
	if err != nil {
		return nil, err
	}
	return Prepare(arch, seed, opts...)
}

// Arch returns the prepared architecture.
func (p *Prepared) Arch() *Arch { return p.arch }

// Seed returns the weight-initialization seed.
func (p *Prepared) Seed() uint64 { return p.seed }

// Int8 reports whether the image was sealed in the quantized int8
// layout (see WithInt8).
func (p *Prepared) Int8() bool { return p.int8 }

// Model returns the plaintext model (structure, biases, BN state; its
// kernel weights also live sealed in the image).
func (p *Prepared) Model() *Model { return p.model }

// Plan returns the smart-encryption plan.
func (p *Prepared) Plan() *Plan { return p.plan }

// Layout returns the EMalloc memory layout.
func (p *Prepared) Layout() *Layout { return p.layout }

// Image returns the sealed memory image.
func (p *Prepared) Image() *MemoryImage { return p.image }

// Engine returns the bundle's primary streaming engine. Engines are not
// safe for concurrent Forward calls; workers that run in parallel each
// need their own NewEngine.
func (p *Prepared) Engine() *SecureEngine { return p.engine }

// Forward streams one inference batch [N, C, H, W] from the sealed
// image on the primary engine and returns the logits, bit-identical to
// Model().Forward (the float eval forward, or the quantized one under
// WithInt8). The returned tensor is valid until the next Forward on the
// same engine. If the image fails verification, Forward returns no
// logits and an error wrapping ErrTampered.
func (p *Prepared) Forward(x *Tensor) (*Tensor, error) { return p.engine.Forward(x) }

// NewEngine builds an additional streaming engine over the same sealed
// image, backed by its own (bit-identical, seed-rebuilt) model
// instance. Separate engines share only the image, whose decrypt path
// is concurrency-safe, so each engine can run Forward on its own
// goroutine — this is how the serving gateway gives each dispatcher
// worker of a model its own engine without re-encrypting anything.
func (p *Prepared) NewEngine() (*SecureEngine, error) {
	m, err := models.Build(p.arch, prng.New(p.seed))
	if err != nil {
		return nil, err
	}
	return secure.NewEngine(p.image, m, p.panelBytes)
}
