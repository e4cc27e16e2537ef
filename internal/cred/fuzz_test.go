package cred

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
)

// FuzzParseCredential feeds arbitrary bytes to the credential decoder a
// stranger reaches on every pushed advertisement (its KeyInfo chain), every
// secureConnection and login answer and every credential-carrying request. The seeds are an administrator's, a broker's and a client's
// credential — the last with its certified agreement key — and a client
// credential whose share is one byte short. Properties: it never panics; a
// credential it accepts encodes back to exactly the bytes it was read
// from, so the signed bytes are what came in; a share is exactly ShareSize
// bytes or absent; two credentials that differ in any signed field, the
// share included, get different link keys in the verdict store; and what
// it allocates is bounded by the input's size.
func FuzzParseCredential(f *testing.F) {
	adm, br, cl := setup(f)
	for _, c := range []*Credential{adm, br, cl} {
		f.Add(bytesOf(f, c))
	}
	short := layoutOf(f, cl)
	short.share = short.share[:31]
	f.Add(short.join())

	otherShare, _ := otherKP.Public().AgreementShare()

	// What one parse may allocate: a copy of the input and the strings
	// read from it, plus the fixed cost of reading an RSA key — the limit
	// FuzzOpen holds an open to.
	const (
		allocPerByte = 8
		allocFixed   = 32 << 10
	)
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, raw []byte) {
		runtime.ReadMemStats(&before)
		c, err := Parse(raw)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocFixed+allocPerByte*len(raw)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes, limit %d", len(raw), got, limit)
		}
		if err != nil {
			return
		}
		if again := bytesOf(t, c.Clone()); !bytes.Equal(again, raw) {
			t.Fatalf("accepted credential re-encodes differently:\n in %x\nout %x", raw, again)
		}
		got, certified := c.Key.AgreementShare()
		if l, ok := cut(raw); !ok || len(l.share) != map[bool]int{true: keys.ShareSize}[certified] ||
			(certified && !bytes.Equal(l.share, got[:])) {
			t.Fatalf("share field %x accepted as share %x (certified %v)", l.share, got, certified)
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
		otherRole := RoleDatabase
		if c.Role == otherRole {
			otherRole = RoleClient
		}
		variants := map[string]func(v *Credential){
			"Subject":     func(v *Credential) { v.Subject += "x" },
			"SubjectName": func(v *Credential) { v.SubjectName += "x" },
			"Role":        func(v *Credential) { v.Role = otherRole },
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
			if vk, ok := linkKey(v, br.Key); ok && vk == key {
				t.Fatalf("a credential with another %s has the same link key", name)
			}
		}
	})
}
