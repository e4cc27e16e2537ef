package keys

import (
	"bytes"
	"os"
	"testing"
)

// FuzzEnvelope feeds arbitrary bytes to the envelope's parse and open,
// the path every sealed message, login request and database request takes
// at its recipient, under a fixed recipient key (a committed, test-only
// RSA-1024 key, from which the agreement key derives), so that an input
// saved on one machine opens on the next. The seeds are two envelopes
// sealed to that key and the two spliced at the nonce.
// Properties: it never panics; the fields it cuts, and the wire it hands
// back, are views inside the input, the fields of their fixed sizes; and an envelope that opens is authentic in
// every byte — the share and the wrap are under the wrap's tag, the nonce
// is in its key, the ciphertext is under the AEAD — so flipping any one
// byte of it leaves nothing that opens.
func FuzzEnvelope(f *testing.F) {
	pem, err := os.ReadFile("testdata/fuzz_envelope_key.pem")
	if err != nil {
		f.Fatal(err)
	}
	own, err := ParseKeyPairPEM(pem)
	if err != nil {
		f.Fatal(err)
	}
	var twice [2][]byte
	for i := range twice {
		env, err := own.Public().Encrypt([]byte("fuzz seed"))
		if err != nil {
			f.Fatal(err)
		}
		twice[i] = env.Bytes()
		f.Add(twice[i])
	}
	f.Add(append(bytes.Clone(twice[0][:ShareSize+WrapSize]), twice[1][ShareSize+WrapSize:]...))
	f.Add(make([]byte, EnvelopePrefix+AEADOverhead))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ParseEnvelope(data)
		if err != nil {
			if len(data) >= EnvelopePrefix+AEADOverhead {
				t.Fatalf("%d bytes refused: an envelope is any %d or more", len(data), EnvelopePrefix+AEADOverhead)
			}
			return
		}
		fields := [][]byte{env.Ephemeral, env.Wrap, env.Nonce, env.Ciphertext}
		at := 0
		for i, want := range []int{ShareSize, WrapSize, AEADNonceSize, len(data) - EnvelopePrefix} {
			if len(fields[i]) != want || &fields[i][0] != &data[at] {
				t.Fatalf("field %d is not the %d bytes of the input at %d", i, want, at)
			}
			at += want
		}
		if wire := env.Bytes(); len(wire) != len(data) || &wire[0] != &data[0] {
			t.Fatal("the envelope's wire is not the input")
		}
		if _, err := own.Decrypt(env); err != nil || len(data) > 4096 {
			return
		}
		for i := range data {
			flipped := bytes.Clone(data)
			flipped[i] ^= 0x01
			env, _ := ParseEnvelope(flipped)
			if _, err := own.Decrypt(env); err == nil {
				t.Fatalf("an envelope that opens still opens with byte %d flipped", i)
			}
		}
	})
}
