package persist

import "errors"

// Sentinel errors of the durability layer. Every error an exported
// function returns wraps one of these (or a caller-supplied cause) with
// %w, so recovery code can classify failures with errors.Is — the errwrap
// analyzer (internal/lint) enforces that this file stays the package's
// complete vocabulary.
var (
	// ErrCorrupt reports a snapshot or WAL file that failed structural or
	// checksum validation. Callers are expected to treat it as "this file
	// is unusable", not as a crash.
	ErrCorrupt = errors.New("persist: corrupt file")
	// ErrClosed reports an operation on a WAL after Close.
	ErrClosed = errors.New("persist: wal is closed")
	// ErrSick reports an append on a WAL that previously failed an append
	// even after retries, or lost its file handle, and has not been healed
	// by a Reset. Records accepted while sick would silently miss the log,
	// so the WAL refuses.
	ErrSick = errors.New("persist: wal is sick (unrepaired append failure)")
	// ErrUnsynced reports an atomic file replacement whose rename landed
	// but whose directory fsync failed: readers already see the new
	// content, but it may not survive a power cut until the directory is
	// synced again.
	ErrUnsynced = errors.New("persist: file replaced but directory not synced")
	// ErrInvalidArgument reports caller-supplied values the store cannot
	// act on: an empty data dir, a malformed manifest, an out-of-range cut.
	ErrInvalidArgument = errors.New("persist: invalid argument")
)
