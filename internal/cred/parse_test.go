package cred

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
)

// layout is a credential's bytes cut at the package comment's fields, read
// here independently of Parse: the tests edit one part and join them again.
type layout struct {
	kind                byte
	subject, name       []byte
	role                byte
	issuer, key, share  []byte
	notBefore, notAfter []byte // 12 bytes each: i64 seconds ‖ u32 ns
	sig                 []byte
}

// cut splits raw at its fields; ok is false when they do not tile it.
func cut(raw []byte) (l layout, ok bool) {
	rest := raw
	take := func(n int) []byte {
		if len(rest) < n {
			ok = false
			return nil
		}
		v := rest[:n]
		rest = rest[n:]
		return v
	}
	field := func() []byte {
		n := take(2)
		if n == nil {
			return nil
		}
		return take(int(binary.BigEndian.Uint16(n)))
	}
	ok = true
	if k := take(1); k != nil {
		l.kind = k[0]
	}
	l.subject, l.name = field(), field()
	if r := take(1); r != nil {
		l.role = r[0]
	}
	l.issuer, l.key, l.share = field(), field(), field()
	l.notBefore, l.notAfter, l.sig = take(12), take(12), field()
	return l, ok && len(rest) == 0
}

// join writes the parts back, each field behind its u16 length.
func (l layout) join() []byte {
	out := []byte{l.kind}
	out = proto.AppendField(proto.AppendField(out, l.subject), l.name)
	out = append(out, l.role)
	out = proto.AppendField(proto.AppendField(proto.AppendField(out, l.issuer), l.key), l.share)
	out = append(append(out, l.notBefore...), l.notAfter...)
	return proto.AppendField(out, l.sig)
}

func bytesOf(t testing.TB, c *Credential) []byte {
	t.Helper()
	raw, err := c.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func layoutOf(t testing.TB, c *Credential) layout {
	t.Helper()
	l, ok := cut(bytesOf(t, c))
	if !ok {
		t.Fatal("a credential's bytes do not tile its layout")
	}
	return l
}

func mustParse(t testing.TB, raw []byte) *Credential {
	t.Helper()
	c, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestIssueCertifiesShareForClientsOnly: a client credential certifies
// the agreement key its subject's key carries, in a share field the
// signature covers; an administrator's or broker's certifies the RSA key
// alone — its share field is empty — whatever the key it was issued for
// carries.
func TestIssueCertifiesShareForClientsOnly(t *testing.T) {
	adm, br, cl := setup(t)
	want, _ := clientKP.Public().AgreementShare()
	if got, ok := cl.Key.AgreementShare(); !ok || got != want {
		t.Fatalf("client credential certifies share %x (%v), want %x", got, ok, want)
	}
	if got := layoutOf(t, cl).share; !bytes.Equal(got, want[:]) {
		t.Fatalf("client credential's share field %x", got)
	}
	for _, c := range []*Credential{adm, br} {
		if _, ok := c.Key.AgreementShare(); ok || len(layoutOf(t, c).share) != 0 {
			t.Errorf("%s credential certifies an agreement key", c.Role)
		}
		if !c.Key.SameIdentity(map[Role]*keys.KeyPair{RoleAdmin: adminKP, RoleBroker: brokerKP}[c.Role].Public()) {
			t.Errorf("%s credential certifies another RSA key", c.Role)
		}
	}
}

// TestParseReadsWhatDocumentWrites: every credential this package writes
// is the layout the package comment gives, field for field, parses back
// equal and writes back the same bytes, with and without a share.
func TestParseReadsWhatDocumentWrites(t *testing.T) {
	adm, br, cl := setup(t)
	for i, c := range []*Credential{adm, br, cl} {
		raw := bytesOf(t, c)
		l := layoutOf(t, c)
		der, _ := c.Key.MarshalDER()
		if l.kind != byte(proto.KindCredential) || string(l.subject) != string(c.Subject) || string(l.name) != c.SubjectName ||
			l.role != byte(i+1) || string(l.issuer) != string(c.Issuer) || !bytes.Equal(l.key, der) ||
			!bytes.Equal(l.notBefore, proto.AppendTime(nil, c.NotBefore)) || !bytes.Equal(l.notAfter, proto.AppendTime(nil, c.NotAfter)) ||
			!bytes.Equal(l.sig, c.Signature) {
			t.Fatalf("%s credential's bytes are not its layout: %+v", c.Role, l)
		}
		back := mustParse(t, raw)
		if !back.Equal(c) || !back.Key.Equal(c.Key) || back.Role != c.Role || !back.NotAfter.Equal(c.NotAfter) {
			t.Fatalf("%s credential parsed back different", c.Role)
		}
		if again := bytesOf(t, back.Clone()); !bytes.Equal(again, raw) {
			t.Fatalf("%s credential re-encoded differently:\n%x\n%x", c.Role, raw, again)
		}
	}
}

// TestParseRefusesOtherSpellings: a credential is read in the one form
// Bytes writes. Each case below denotes the same credential (or a
// malformed one) in other bytes, which Parse refuses rather than read as
// a credential whose signed bytes are not what came in — and so does every
// proper prefix of the genuine bytes.
func TestParseRefusesOtherSpellings(t *testing.T) {
	_, _, cl := setup(t)
	raw := bytesOf(t, cl)
	edit := func(f func(l *layout)) []byte {
		l := layoutOf(t, cl)
		f(&l)
		return l.join()
	}
	// NotBefore one second earlier with a second's worth of nanoseconds:
	// the same instant, spelled the way AppendTime never writes it.
	sameInstant := func(l *layout) {
		secs, ns := binary.BigEndian.Uint64(l.notBefore), binary.BigEndian.Uint32(l.notBefore[8:])
		l.notBefore = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, secs-1), ns+1e9)
	}
	share, _ := cl.Key.AgreementShare()
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"another kind byte", edit(func(l *layout) { l.kind = byte(proto.KindQuery) })},
		{"role 0", edit(func(l *layout) { l.role = 0 })},
		{"role 5", edit(func(l *layout) { l.role = 5 })},
		{"share of 31 bytes", edit(func(l *layout) { l.share = share[:31] })},
		{"share of 33 bytes", edit(func(l *layout) { l.share = append(share[:], 0) })},
		{"NotBefore's nanoseconds a second", edit(sameInstant)},
		{"key with a byte behind its DER", edit(func(l *layout) { l.key = append(bytes.Clone(l.key), 0) })},
		{"no signature", edit(func(l *layout) { l.sig = nil })},
		{"a trailing byte", append(bytes.Clone(raw), 0)},
		{"a field overrunning the bytes", edit(func(l *layout) { l.name = bytes.Repeat([]byte{'a'}, len(raw)) })[:len(raw)]},
	} {
		if bytes.Equal(tc.raw, raw) {
			t.Fatalf("%s: the case did not change the bytes", tc.name)
		}
		if c, err := Parse(tc.raw); err == nil {
			t.Errorf("%s: parsed to %+v", tc.name, c)
		}
	}
	for n := range len(raw) {
		if _, err := Parse(raw[:n]); err == nil {
			t.Fatalf("the first %d of %d bytes parsed", n, len(raw))
		}
	}
	if _, err := Parse(raw); err != nil {
		t.Fatalf("the genuine bytes: %v", err)
	}
}

// TestParseCopiesItsInput: a credential is held for a session and by the
// trust store, so it keeps nothing of the buffer it was read from — a
// frame opened in place is reused.
func TestParseCopiesItsInput(t *testing.T) {
	_, _, cl := setup(t)
	in := bytes.Clone(bytesOf(t, cl))
	c := mustParse(t, in)
	clear(in)
	if !c.Equal(cl) || c.Verify(brokerKP.Public(), time.Now()) != nil {
		t.Fatal("a parsed credential changed with the buffer it was read from")
	}
}
