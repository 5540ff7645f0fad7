package runstate

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"twopcp/internal/mat"
)

// Phase-2 and result checkpoints share one section layout inside their
// framing: a uint32 length-prefixed JSON header followed by matrices in
// mat.AppendMatrix encoding. The header declares how many matrices
// follow; encode/decode of the layout lives here so the two checkpoint
// kinds can never diverge in corruption handling.

// appendSection appends hdr as the JSON header, then the matrix section, to
// dst — the record is built once, in the buffer it is written from.
func appendSection(dst []byte, what string, hdr any, mats []*mat.Matrix) ([]byte, error) {
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("runstate: marshal %s header: %w", what, err)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hj)))
	dst = append(dst, hj...)
	for _, m := range mats {
		dst = mat.AppendMatrix(dst, m)
	}
	return dst, nil
}

// decodeSection unmarshals the JSON header into hdr and returns the matrix
// section (decode it with decodeMatrices). Every framing defect maps to
// ErrCorrupt.
func decodeSection(what string, payload []byte, hdr any) ([]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: %s payload of %d bytes has no header length", ErrCorrupt, what, len(payload))
	}
	hlen := binary.LittleEndian.Uint32(payload)
	payload = payload[4:]
	if uint64(hlen) > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: %s header length %d exceeds payload", ErrCorrupt, what, hlen)
	}
	if err := json.Unmarshal(payload[:hlen], hdr); err != nil {
		return nil, fmt.Errorf("%w: %s header: %v", ErrCorrupt, what, err)
	}
	return payload[hlen:], nil
}

// decodeMatrices decodes the n matrices that make up the whole of b.
func decodeMatrices(what string, b []byte, n int) ([]*mat.Matrix, error) {
	// A matrix is at least its 8-byte shape, so b bounds n before n sizes
	// anything.
	if n < 0 || n > len(b)/8 {
		return nil, fmt.Errorf("%w: %s declares %d matrices in %d bytes", ErrCorrupt, what, n, len(b))
	}
	mats := make([]*mat.Matrix, n)
	for i := range mats {
		var err error
		if mats[i], b, err = mat.DecodeMatrix(b); err != nil {
			return nil, fmt.Errorf("%w: %s matrix %d: %v", ErrCorrupt, what, i, err)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %s has %d bytes after its last matrix", ErrCorrupt, what, len(b))
	}
	return mats, nil
}
