package seal

import (
	"errors"

	"seal/internal/core"
)

// Sentinel errors of the façade. Every constructor and the serving
// gateway wrap these with %w, so callers branch with errors.Is instead
// of string matching — the HTTP gateway maps them straight to status
// codes (ErrModelNotFound → 404, ErrBadKey / ErrUnknownArch → 400,
// ErrTampered → 500).
var (
	// ErrBadKey reports a sealing key that failed validation (wrong
	// length for AES-128).
	ErrBadKey = errors.New("seal: bad key")

	// ErrUnknownArch reports an architecture name outside the zoo.
	ErrUnknownArch = errors.New("seal: unknown architecture")

	// ErrModelNotFound reports a registry lookup for a model that is not
	// (or no longer) hosted.
	ErrModelNotFound = errors.New("seal: model not found")

	// ErrBadOption reports a PrepareOption whose argument failed
	// validation (e.g. WithPanelBytes(n) with n <= 0, or WithBatch(n)
	// with n < 1). Prepare rejects these up front so misconfiguration
	// surfaces at preparation time, not later from engine construction.
	ErrBadOption = errors.New("seal: bad option")

	// ErrTampered reports a sealed weight block, tag or scales header
	// that failed verification: the memory image was modified after it
	// was sealed. Forward returns it (wrapped) instead of logits, and
	// NewSecureEngine when a scales header fails.
	ErrTampered = core.ErrTampered
)
