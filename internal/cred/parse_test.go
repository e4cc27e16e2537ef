package cred

import (
	"bytes"
	"encoding/base64"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// TestIssueCertifiesShareForClientsOnly: a client credential certifies
// the agreement key its subject's key carries, in an Agree field the
// signature covers; an administrator's or broker's certifies the RSA key
// alone, whatever the key it was issued for carries.
func TestIssueCertifiesShareForClientsOnly(t *testing.T) {
	adm, br, cl := setup(t)
	want, _ := clientKP.Public().AgreementShare()
	if got, ok := cl.Key.AgreementShare(); !ok || got != want {
		t.Fatalf("client credential certifies share %x (%v), want %x", got, ok, want)
	}
	doc, err := cl.Document()
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.ChildText("Agree"); got != base64.RawStdEncoding.EncodeToString(want[:]) {
		t.Fatalf("client credential's Agree field %q", got)
	}
	for _, c := range []*Credential{adm, br} {
		if _, ok := c.Key.AgreementShare(); ok {
			t.Errorf("%s credential certifies an agreement key", c.Role)
		}
		if !c.Key.SameIdentity(map[Role]*keys.KeyPair{RoleAdmin: adminKP, RoleBroker: brokerKP}[c.Role].Public()) {
			t.Errorf("%s credential certifies another RSA key", c.Role)
		}
	}
}

// TestParseReadsWhatDocumentWrites: every credential this package writes
// parses back equal and serializes back to the same bytes, with and
// without a share.
func TestParseReadsWhatDocumentWrites(t *testing.T) {
	adm, br, cl := setup(t)
	for _, c := range []*Credential{adm, br, cl} {
		raw := canonicalOf(t, c)
		back := mustParse(t, raw)
		if !back.Equal(c) || !back.Key.Equal(c.Key) {
			t.Fatalf("%s credential parsed back different", c.Role)
		}
		if again := canonicalOf(t, back); !bytes.Equal(again, raw) {
			t.Fatalf("%s credential re-serialized differently:\n%s\n%s", c.Role, raw, again)
		}
	}
}

// TestParseRefusesOtherSpellings: a credential is read in the one form
// Document writes. Each case below denotes the same credential (or a
// malformed one) in bytes Document would not write, which Parse refuses
// rather than read as a credential whose signed body is other bytes.
func TestParseRefusesOtherSpellings(t *testing.T) {
	_, _, cl := setup(t)
	raw := string(canonicalOf(t, cl))
	doc := func(edit func(d *xmldoc.Element)) string {
		d, err := xmldoc.ParseCanonical([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		d = d.Clone()
		edit(d)
		return string(d.Canonical())
	}
	setText := func(name, text string) func(*xmldoc.Element) {
		return func(d *xmldoc.Element) { d.Child(name).SetText(text) }
	}
	share, _ := cl.Key.AgreementShare()
	b64 := base64.RawStdEncoding
	for _, tc := range []struct{ name, xml string }{
		{"fields reordered", strings.Replace(raw, "<Role>client</Role><Issuer>"+string(cl.Issuer)+"</Issuer>",
			"<Issuer>"+string(cl.Issuer)+"</Issuer><Role>client</Role>", 1)},
		{"a field twice", strings.Replace(raw, "<Role>client</Role>", "<Role>client</Role><Role>client</Role>", 1)},
		{"an unknown field", doc(func(d *xmldoc.Element) { d.Add(xmldoc.New("Extra", "x")) })},
		{"a field with an attribute", doc(func(d *xmldoc.Element) { d.Child("Role").SetAttr("x", "y") })},
		{"NotAfter with an offset", doc(setText("NotAfter", cl.NotAfter.In(time.FixedZone("x", 3600)).Format(time.RFC3339Nano)))},
		{"NotBefore with a decimal comma", doc(setText("NotBefore", strings.Replace(cl.NotBefore.UTC().Format(time.RFC3339Nano), ".", ",", 1)))},
		{"Key split by a newline", doc(func(d *xmldoc.Element) { k := d.ChildText("Key"); d.Child("Key").SetText(k[:10] + "\n" + k[10:]) })},
		{"Signature split by a newline", doc(func(d *xmldoc.Element) {
			s := d.ChildText("Signature")
			d.Child("Signature").SetText(s[:10] + "\n" + s[10:])
		})},
		{"empty Agree", doc(setText("Agree", ""))},
		{"Agree of 31 bytes", doc(setText("Agree", b64.EncodeToString(share[:31])))},
		{"Agree of 33 bytes", doc(setText("Agree", b64.EncodeToString(append(share[:], 0))))},
		{"Agree padded", doc(setText("Agree", base64.StdEncoding.EncodeToString(share[:])))},
		{"Agree after NotBefore", func() string {
			agree := "<Agree>" + b64.EncodeToString(share[:]) + "</Agree>"
			notBefore := "<NotBefore>" + cl.NotBefore.UTC().Format(time.RFC3339Nano) + "</NotBefore>"
			return strings.Replace(strings.Replace(raw, agree, "", 1), notBefore, notBefore+agree, 1)
		}()},
	} {
		if tc.xml == raw {
			t.Fatalf("%s: the case did not change the document", tc.name)
		}
		d, err := xmldoc.ParseCanonical([]byte(tc.xml))
		if err != nil {
			continue // not even canonical XML
		}
		if c, err := Parse(d); err == nil {
			t.Errorf("%s: parsed to %+v", tc.name, c)
		}
	}
}

func canonicalOf(t testing.TB, c *Credential) []byte {
	t.Helper()
	d, err := c.Document()
	if err != nil {
		t.Fatal(err)
	}
	return d.Canonical()
}

func mustParse(t testing.TB, raw []byte) *Credential {
	t.Helper()
	d, err := xmldoc.ParseCanonical(bytes.Clone(raw))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
