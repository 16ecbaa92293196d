// Command sealserve is the multi-tenant encrypted-inference gateway: it
// serves models prepared with seal.Prepare over HTTP, with each
// tenant's weights sealed under a key derived from the gateway master
// key. Requests are admitted through a bounded queue (full queue →
// 429 + Retry-After), batched dynamically, and executed by dispatcher
// workers that each own a streaming secure engine, so clients send one
// sample per request while the accelerator sees wide batches.
//
// Usage:
//
//	sealserve -master-key $(openssl rand -hex 16)     # serve
//	sealserve -insecure-dev-key -preload vgg16        # local dev, fixed key
//
// The master key must be 32 hex characters (16 random bytes), not all
// zero. The passphrase-derived dev key is accepted only behind
// -insecure-dev-key: seal.KeyFromString is unsalted and publicly
// computable, so a passphrase-rooted tenant hierarchy is only as strong
// as the passphrase.
//
// bench/ drives this gateway under open-loop load (bench/README.md).
//
// Endpoints:
//
//	GET    /healthz
//	GET    /v1/models
//	GET    /v1/stats
//	PUT    /v1/tenants/{tenant}/models/{model}        register / hot-swap
//	DELETE /v1/tenants/{tenant}/models/{model}        unregister
//	POST   /v1/tenants/{tenant}/models/{model}/infer  one sample per request
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seal"
	"seal/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		masterKey = flag.String("master-key", "", "hex-encoded 128-bit master key (32 hex chars); tenant keys are derived from it")
		devKey    = flag.Bool("insecure-dev-key", false, "serve with a fixed passphrase-derived key instead of -master-key (local development only; trivially brute-forceable)")
		preload   = flag.String("preload", "", "comma-separated architectures to register at startup under tenant \"public\"")
		scale     = flag.Float64("scale", 0.25, "channel-width multiplier for preloaded models")
		ratio     = flag.Float64("ratio", 0.5, "SE encryption ratio for preloaded models")
		seed      = flag.Uint64("seed", 42, "weight-initialization seed for preloaded models")

		queue   = flag.Int("queue", serve.DefaultQueueDepth, "per-model admission queue depth")
		maxB    = flag.Int("max-batch", serve.DefaultMaxBatch, "dynamic batch size cap")
		window  = flag.Duration("batch-window", serve.DefaultBatchWindow, "how long the batcher waits to widen a batch")
		workers = flag.Int("workers", 0, "secure engines per model (0 = size from SEAL_WORKERS/CPU)")
	)
	flag.Parse()
	if err := checkFlags(*scale, *queue, *maxB, *window, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "sealserve: %v\n", err)
		os.Exit(2)
	}

	key, err := resolveMasterKey(*masterKey, *devKey)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sealserve: %v\n", err)
		os.Exit(1)
	}

	cfg := serve.Config{
		MasterKey:   key,
		QueueDepth:  *queue,
		MaxBatch:    *maxB,
		BatchWindow: *window,
		Workers:     *workers,
	}

	gw := serve.New(cfg)
	for _, name := range splitList(*preload) {
		spec := serve.ModelSpec{Arch: name, Scale: *scale, Ratio: ratio, Seed: *seed}
		info, err := gw.Registry().Register("public", name, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealserve: preload %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("sealserve: registered public/%s (%s scale %.3g, %.0f%% weights encrypted, %d workers)\n",
			name, info.Arch, info.Scale, info.WeightEncFraction*100, info.Workers)
	}

	srv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "sealserve: shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx) // stop accepting, drain HTTP
		gw.Close()                    // then let every model's workers finish
	}()

	fmt.Printf("sealserve: listening on %s (queue %d, max batch %d, window %s)\n",
		*addr, *queue, *maxB, *window)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "sealserve: %v\n", err)
		os.Exit(1)
	}
	// ListenAndServe returns the instant Shutdown is called; in-flight
	// requests and batches are still draining in the signal goroutine,
	// so graceful shutdown means waiting for it to finish.
	<-drained
}

// resolveMasterKey turns the -master-key flag into a seal.Key: 32 hex
// characters of full-entropy key material, or — only when allowDev is
// set (-insecure-dev-key) — the fixed passphrase-derived development
// key. The all-zero key is refused: seal.KeyFromString derives from it,
// so every tenant key under it would follow from a public constant.
func resolveMasterKey(hexKey string, allowDev bool) (seal.Key, error) {
	if hexKey != "" {
		raw, err := hex.DecodeString(hexKey)
		if err != nil {
			return seal.Key{}, fmt.Errorf("-master-key: %v (want 32 hex characters)", err)
		}
		key, err := seal.NewKey(raw)
		if err == nil && key == (seal.Key{}) {
			return seal.Key{}, errors.New("-master-key: the all-zero key is public (want 16 random bytes)")
		}
		return key, err
	}
	if allowDev {
		return seal.KeyFromString("sealserve dev master key"), nil
	}
	return seal.Key{}, errors.New("-master-key is required: 32 hex characters of random key material (e.g. `openssl rand -hex 16`); pass -insecure-dev-key to serve with the fixed dev key locally")
}

// checkFlags rejects flag values the gateway would not run as given.
// A width multiplier must be one the preloaded models can be built
// with; 0 keeps full width, as serve.ModelSpec documents, and the
// comparison is written so that NaN fails it. serve.Config would
// silently replace a queue depth or batch cap below 1, a negative batch
// window and a negative worker count with its defaults, while the
// startup line printed the raw flag. -workers 0 sizes each model's
// workers from SEAL_WORKERS/CPU.
func checkFlags(scale float64, queue, maxBatch int, window time.Duration, workers int) error {
	switch {
	case !(scale >= 0) || math.IsInf(scale, 1):
		return fmt.Errorf("-scale %v: want 0 (full width) or a finite multiplier > 0", scale)
	case queue < 1:
		return fmt.Errorf("-queue %d: want at least 1", queue)
	case maxBatch < 1:
		return fmt.Errorf("-max-batch %d: want at least 1", maxBatch)
	case window < 0:
		return fmt.Errorf("-batch-window %v: want 0 or more", window)
	case workers < 0:
		return fmt.Errorf("-workers %d: want 0 (size from SEAL_WORKERS/CPU) or more", workers)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
