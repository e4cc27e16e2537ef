package audit

import (
	"crypto/subtle"
	"encoding/base64"
	"fmt"
	"strconv"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

// CheckpointElement is the root element of a checkpoint attestation.
const CheckpointElement = "AuditCheckpoint"

// buildCheckpoint produces the signed canonical XML payload of a
// checkpoint record at sequence seq: an attestation that after the
// first seq-1 records the hash chain's head was `head`. The signature
// is the same enveloped XMLdsig shape advertisements use, so the
// KeyInfo block carries the broker's credential chain — the attestation
// is attributable to a specific certified broker key, not just "some
// RSA key".
func buildCheckpoint(seq uint64, head [HashSize]byte, ts time.Time, kp *keys.KeyPair, chain []*cred.Credential) ([]byte, error) {
	doc := xmldoc.New(CheckpointElement, "")
	doc.AddText("Seq", strconv.FormatUint(seq, 10))
	doc.AddText("Records", strconv.FormatUint(seq-1, 10))
	doc.AddText("ChainHead", base64.StdEncoding.EncodeToString(head[:]))
	doc.AddText("Timestamp", strconv.FormatInt(ts.UnixNano(), 10))
	if err := xdsig.Sign(doc, kp, chain...); err != nil {
		return nil, fmt.Errorf("audit: sign checkpoint: %w", err)
	}
	return doc.Canonical(), nil
}

// checkpointClaim is a parsed (not yet verified) checkpoint payload.
type checkpointClaim struct {
	Seq     uint64
	Records uint64
	Head    [HashSize]byte
	Time    int64
	doc     *xmldoc.Element
}

func parseCheckpoint(payload []byte) (*checkpointClaim, error) {
	// The payload is what buildCheckpoint wrote with Canonical(), read back
	// from a disk an adversary may have reached: the canonical subset and
	// nothing else (no DTD, no entity, bounded depth).
	doc, err := xmldoc.ParseCanonical(payload)
	if err != nil {
		return nil, fmt.Errorf("audit: checkpoint payload: %w", err)
	}
	if doc.Name != CheckpointElement {
		return nil, fmt.Errorf("audit: checkpoint payload is a %q document", doc.Name)
	}
	c := &checkpointClaim{doc: doc}
	if c.Seq, err = strconv.ParseUint(doc.ChildText("Seq"), 10, 64); err != nil {
		return nil, fmt.Errorf("audit: checkpoint Seq: %w", err)
	}
	if c.Records, err = strconv.ParseUint(doc.ChildText("Records"), 10, 64); err != nil {
		return nil, fmt.Errorf("audit: checkpoint Records: %w", err)
	}
	h, err := base64.StdEncoding.DecodeString(doc.ChildText("ChainHead"))
	if err != nil || len(h) != HashSize {
		return nil, fmt.Errorf("audit: checkpoint ChainHead invalid")
	}
	copy(c.Head[:], h)
	if c.Time, err = strconv.ParseInt(doc.ChildText("Timestamp"), 10, 64); err != nil {
		return nil, fmt.Errorf("audit: checkpoint Timestamp: %w", err)
	}
	return c, nil
}

// verify checks the claim against the verifier's independently computed
// chain state at the checkpoint's position, then the XMLdsig signature
// (structurally always; against a trust anchor when ts is non-nil).
// It returns the signer's leaf credential for attribution.
func (c *checkpointClaim) verify(rec Record, computedHead [HashSize]byte, ts *cred.TrustStore, now time.Time) (*cred.Credential, error) {
	if c.Seq != rec.Seq {
		return nil, fmt.Errorf("audit: checkpoint claims seq %d but sits at seq %d", c.Seq, rec.Seq)
	}
	if c.Records != rec.Seq-1 {
		return nil, fmt.Errorf("audit: checkpoint claims %d records before seq %d", c.Records, rec.Seq)
	}
	if subtle.ConstantTimeCompare(c.Head[:], computedHead[:]) != 1 {
		return nil, fmt.Errorf("audit: checkpoint chain head does not match the records before it")
	}
	var res *xdsig.Result
	var err error
	if ts != nil {
		res, err = xdsig.VerifyTrusted(c.doc, ts, now)
	} else {
		res, err = xdsig.Verify(c.doc)
	}
	if err != nil {
		return nil, fmt.Errorf("audit: checkpoint signature: %w", err)
	}
	return res.Signer, nil
}
