package msg

import "fmt"

// DecodeBinary parses a whole buffer with the tree decoder Raw.Value runs: the
// reference the fuzzers hold ParseRaw and the encoder to. It rejects
// trailing data and whatever decodeBinary rejects.
func DecodeBinary(data []byte) (Value, error) {
	v, rest, err := decodeBinary(data, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes of trailing data", errBinary, len(rest))
	}
	return v, nil
}
