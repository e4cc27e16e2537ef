package cred

import "jxtaoverlay/internal/lru"

// NewTrustStoreCapacity is NewTrustStore with a bound of the test's
// choosing, small enough for a model test to run the store through its
// evictions.
func NewTrustStoreCapacity(capacity int, anchors ...*Credential) (*TrustStore, error) {
	ts, err := NewTrustStore(anchors...)
	if err != nil {
		return nil, err
	}
	ts.verdicts = lru.New[[64]byte, verdict](capacity)
	return ts, nil
}

// Len is how many verdicts the store holds, expired ones included.
func (t *TrustStore) Len() int { return t.verdicts.Len() }
