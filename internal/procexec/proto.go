// Package procexec shells work out to child processes over a
// length-prefixed stdin/stdout protocol, with a hard watchdog that
// SIGKILLs hung or runaway children. It is the isolation substrate under
// the harness's `pybench -worker` re-exec mode: an invocation that
// segfaults, deadlocks outside the VM, or spins in native code takes down
// only its child process — the one failure class the VM's own step and
// wall budgets cannot catch — while the supervisor stays up and accounts
// for the loss. A cancelled context kills the child the same way.
//
// The package is deliberately generic: frames carry opaque bytes, and the
// request/response schema belongs to the caller (internal/harness defines
// the invocation protocol). Framing is the same discipline as the
// internal/wal journal — 4-byte big-endian length plus CRC32C — so a
// truncated or garbled pipe is detected, never misparsed.
package procexec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrameSize bounds one frame's payload; a decoded length above it is a
// protocol violation (or stream corruption) and kills the connection.
const MaxFrameSize = 1 << 26

const frameHeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrameCorrupt reports a CRC mismatch or bogus length on the pipe.
var ErrFrameCorrupt = errors.New("procexec: corrupt frame")

// WriteFrame writes one length-prefixed, checksummed frame. The header and
// payload go out in a single Write so a well-behaved pipe never interleaves
// partial frames.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("procexec: frame of %d bytes exceeds MaxFrameSize", len(payload))
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderSize:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame. io.EOF at a frame boundary is returned as-is
// (clean shutdown); EOF inside a frame becomes io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // clean EOF before any header byte
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: length %d exceeds limit", ErrFrameCorrupt, n)
	}
	want := binary.BigEndian.Uint32(hdr[4:8])
	// Read through a limit rather than into make([]byte, n): a garbled
	// length on a short stream must not cost an n-byte allocation first.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if len(payload) < int(n) {
		return nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return payload, nil
}
