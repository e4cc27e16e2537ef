package core

import "jxtaoverlay/internal/keys"

// OpenAnyForm runs the open pipeline accepting every wire form — what
// the messenger push handler hands it, minus the group label and the
// guard — for the external test package's fuzz target.
func OpenAnyForm(own *keys.KeyPair, wire []byte) (*Opened, error) {
	return openCopy(own, wire, formEnvelope|formGroup|formSlice, nil)
}
