package cred

import (
	"bytes"
	"encoding/base64"
	"runtime"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// FuzzParseCredential feeds arbitrary bytes to the credential decoder a
// stranger reaches on every pushed advertisement (its KeyInfo chain), every
// login and renewal answer and every credential-signed request: the
// canonical XML parser, then Parse. The seeds are an administrator's, a
// broker's and a client's credential — the last with its certified
// agreement key — and a client credential whose share is one byte short.
// Properties: it never panics; a credential it accepts serializes back to
// exactly the bytes it was read from, so the signed body is what came in;
// a share is exactly ShareSize bytes or the credential is refused; two
// credentials that differ in any signed field, the share included, get
// different link keys in the verdict store; and what it allocates is bounded by
// the input's size.
func FuzzParseCredential(f *testing.F) {
	adm, br, cl := setup(f)
	for _, c := range []*Credential{adm, br, cl} {
		f.Add(canonicalOf(f, c))
	}
	share, _ := cl.Key.AgreementShare()
	f.Add([]byte(strings.Replace(string(canonicalOf(f, cl)), base64.RawStdEncoding.EncodeToString(share[:]),
		base64.RawStdEncoding.EncodeToString(share[:31]), 1)))

	otherShare, _ := otherKP.Public().AgreementShare()

	// What one parse may allocate: the element tree and a few copies of the
	// input (the decoded key and signature), plus the fixed cost of reading
	// an RSA key — the limit FuzzOpen holds an open to.
	const (
		allocPerByte = 8
		allocFixed   = 32 << 10
	)
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := bytes.Clone(raw) // the tree is views of what it parsed
		runtime.ReadMemStats(&before)
		doc, err := xmldoc.ParseCanonical(in)
		var c *Credential
		if err == nil {
			c, err = Parse(doc)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocFixed+allocPerByte*len(raw)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes, limit %d", len(raw), got, limit)
		}
		if err != nil {
			return
		}
		if again := canonicalOf(t, c); !bytes.Equal(again, raw) {
			t.Fatalf("accepted credential re-serializes differently:\n in %q\nout %q", raw, again)
		}
		got, certified := c.Key.AgreementShare()
		if agree := doc.Child("Agree"); (agree != nil) != certified {
			t.Fatalf("Agree field present = %v, share certified = %v", agree != nil, certified)
		} else if certified {
			if decoded, err := base64.RawStdEncoding.DecodeString(agree.Text); err != nil || !bytes.Equal(decoded, got[:]) || len(decoded) != keys.ShareSize {
				t.Fatalf("Agree %q accepted as share %x", agree.Text, got)
			}
		}

		// Each variant differs from c in one signed field.
		key, ok := linkKey(c, br.Key)
		if !ok {
			t.Fatal("no link key for a parsed credential")
		}
		flipped := bytes.Clone(c.Signature)
		flipped[0] ^= 1
		otherKey := otherKP.Public().WithShare(nil)
		if otherKey.SameIdentity(c.Key) {
			otherKey = clientKP.Public().WithShare(nil)
		}
		if certified {
			otherKey = otherKey.WithShare(&got) // another RSA key, the same share
		}
		variants := map[string]func(v *Credential){
			"Subject":     func(v *Credential) { v.Subject += "x" },
			"SubjectName": func(v *Credential) { v.SubjectName += "x" },
			"Role":        func(v *Credential) { v.Role += "x" },
			"Issuer":      func(v *Credential) { v.Issuer += "x" },
			"Key":         func(v *Credential) { v.Key = otherKey },
			"share":       func(v *Credential) { v.Key = v.Key.WithShare(&otherShare) },
			"no share":    func(v *Credential) { v.Key = v.Key.WithShare(nil) },
			"NotBefore":   func(v *Credential) { v.NotBefore = v.NotBefore.Add(time.Nanosecond) },
			"NotAfter":    func(v *Credential) { v.NotAfter = v.NotAfter.Add(time.Nanosecond) },
			"Signature":   func(v *Credential) { v.Signature = flipped },
		}
		if !certified {
			delete(variants, "no share") // nothing to drop
		} else if got == otherShare {
			delete(variants, "share") // already the other share
		}
		for name, edit := range variants {
			v := c.Clone()
			edit(v)
			if vk, _ := linkKey(v, br.Key); vk == key {
				t.Fatalf("a credential with another %s has the same link key", name)
			}
		}
	})
}
