package blockstore

import "errors"

// Transient-vs-permanent error classification. Every error a Store
// returns falls in one of two classes:
//
//   - Transient: the operation may succeed if repeated — an injected
//     probabilistic fault or a genuine I/O hiccup from the filesystem.
//     Transient errors wrap ErrTransient and are the only errors
//     ResilientStore retries.
//   - Permanent: repeating cannot help. ErrNotFound (the unit was never
//     written — usually a caller bug), ErrCorrupt (on-disk damage; retrying
//     rereads the same damaged bytes), ErrInjected (a FaultyStore fault
//     declared permanent) and any unclassified error are permanent and
//     surface immediately.
//
// Wrappers preserve the class: every error path annotates with op,
// mode/part and cause via %w, so errors.Is sees through the context.

// ErrTransient marks a fault that may heal on retry.
var ErrTransient = errors.New("blockstore: transient fault")

// IsTransient reports whether err is worth retrying: it wraps
// ErrTransient. Everything else — ErrNotFound, ErrCorrupt, ErrShape,
// ErrInjected, unclassified errors — is permanent.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }
